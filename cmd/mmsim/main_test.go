package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRejectsFlagsThatDescribeNoGroup(t *testing.T) {
	for _, args := range [][]string{
		{"-senders", "0"},
		{"-n", "0"},
		{"-hier", "-ordering", "total"},
		{"-hier", "-ordering", "causal"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("mmsim %v exited %d, want 2", args, code)
		}
		if stdout.Len() > 0 || !strings.Contains(stderr.String(), "Usage") {
			t.Errorf("mmsim %v: want only a usage message, got stdout %q stderr %q",
				args, stdout.String(), stderr.String())
		}
	}
}

func TestRunsFlatAndHierGroups(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "6", "-ordering", "total", "-msgs", "12", "-senders", "3"},
		{"-n", "8", "-hier", "-cluster", "4", "-msgs", "12", "-senders", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("mmsim %v exited %d: %s", args, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "latency ms:") {
			t.Errorf("mmsim %v printed no summary:\n%s", args, stdout.String())
		}
	}
}
