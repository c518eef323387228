package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestA2NackVsAckShape(t *testing.T) {
	tab := AblationNackVsAck(quick)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// ACK feedback per multicast must grow with n (implosion); NACK
	// feedback stays small and roughly flat.
	firstAck := cell(t, tab.Rows[0][1])
	lastAck := cell(t, tab.Rows[len(tab.Rows)-1][1])
	if lastAck <= firstAck {
		t.Errorf("ACK feedback did not grow with n: %.2f -> %.2f", firstAck, lastAck)
	}
	lastNack := cell(t, tab.Rows[len(tab.Rows)-1][2])
	if lastNack >= lastAck {
		t.Errorf("NACK feedback %.2f not below ACK %.2f at max n", lastNack, lastAck)
	}
	// 2% loss over 16 members gaps someone: a zero here means the column
	// counts something the engine does not send.
	if lastNack == 0 {
		t.Error("NACK design sent no repair requests at 2% loss")
	}
	// Both variants must deliver everything.
	for _, row := range tab.Rows {
		for _, col := range []int{5, 6} {
			parts := strings.Split(row[col], "/")
			if len(parts) != 2 || parts[0] != parts[1] {
				t.Fatalf("incomplete delivery: %v", row)
			}
		}
	}
}

// TestA2DeterministicAcrossRuns: the ACK baseline retransmits in sequence
// order, so two A2 runs with one seed print the same table.
func TestA2DeterministicAcrossRuns(t *testing.T) {
	a, b := AblationNackVsAck(quick), AblationNackVsAck(quick)
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatalf("A2 cell [%d][%d] (%s) differs between two runs: %q vs %q",
					i, j, a.Columns[j], a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
}

func TestA3FECShape(t *testing.T) {
	tab := AblationFEC(quick)
	for _, row := range tab.Rows {
		plain := cell(t, row[1])
		withFEC := cell(t, row[2])
		if withFEC >= plain {
			t.Errorf("loss %s%%: FEC miss %.1f%% not below plain %.1f%%",
				row[0], withFEC, plain)
		}
		rec, err := strconv.Atoi(row[3])
		if err != nil || rec == 0 {
			t.Errorf("no FEC recoveries at loss %s%%: %v", row[0], row)
		}
	}
}
