// Manifest encoding for bulk objects. The manifest is the only part of a
// bulk transfer that rides the reliable ordered channel; it names the
// object, fixes the coding geometry, and pins a hash per generation so a
// receiver can verify every reconstruction before trusting it.
package bulk

import (
	"encoding/binary"
	"errors"
	"fmt"

	"scalamedia/internal/id"
	"scalamedia/internal/wire"
)

// Manifest describes one published object: its identity, size, coding
// geometry and per-generation content hashes. Everything a receiver
// needs to collect symbols and verify reconstruction, in ~24 bytes plus
// 8 per generation.
type Manifest struct {
	// Object is the application-chosen object identifier.
	Object uint64
	// Size is the object length in bytes (before padding).
	Size uint64
	// Origin is the publishing node, the fallback source for repairs.
	Origin id.Node
	// SymbolSize is the fixed coded-symbol length in bytes.
	SymbolSize int
	// K and R are the data and repair symbol counts per generation.
	K, R int
	// GenHashes holds one CRC-64/ECMA hash per generation, taken over the
	// generation's k padded data symbols.
	GenHashes []uint64
}

// Generations returns the generation count implied by the geometry.
func (m Manifest) Generations() int { return len(m.GenHashes) }

// ErrBadManifest reports a malformed or self-inconsistent manifest.
var ErrBadManifest = errors.New("bulk: bad manifest")

// maxGenerations and maxSymbols bound the symbol space a manifest may
// declare — generations, and symbol slots over all of them. A MaxObjectSize
// object at the default geometry has 16 384 generations and 327 680 slots;
// the bounds exist so a malformed manifest cannot make a receiver allocate
// tracking state out of proportion to the largest object it would accept.
const (
	maxGenerations = 1 << 16
	maxSymbols     = 1 << 22
)

// Validate checks internal consistency: supported geometry, a size no
// publisher could exceed (MaxObjectSize) and one that fills the declared
// generations.
func (m Manifest) Validate() error {
	if m.K < 1 || m.R < 0 || m.K+m.R > 255 {
		return fmt.Errorf("%w: k=%d r=%d", ErrBadManifest, m.K, m.R)
	}
	if m.SymbolSize < 1 || m.SymbolSize > wire.MaxBody {
		return fmt.Errorf("%w: symbol size %d", ErrBadManifest, m.SymbolSize)
	}
	gens := len(m.GenHashes)
	if gens < 1 || gens > maxGenerations || gens*(m.K+m.R) > maxSymbols {
		return fmt.Errorf("%w: %d generations", ErrBadManifest, gens)
	}
	perGen := uint64(m.K) * uint64(m.SymbolSize)
	if m.Size == 0 || m.Size > MaxObjectSize || m.Size > perGen*uint64(gens) || m.Size <= perGen*uint64(gens-1) {
		return fmt.Errorf("%w: size %d does not fill %d generations", ErrBadManifest, m.Size, gens)
	}
	return nil
}

// AppendManifest appends the binary encoding of m to dst.
func AppendManifest(dst []byte, m Manifest) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], m.Object)
	dst = append(dst, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], m.Size)
	dst = append(dst, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(m.Origin))
	dst = append(dst, tmp[:]...)
	binary.BigEndian.PutUint32(tmp[:4], uint32(m.SymbolSize))
	dst = append(dst, tmp[:4]...)
	dst = append(dst, byte(m.K), byte(m.R))
	binary.BigEndian.PutUint32(tmp[:4], uint32(len(m.GenHashes)))
	dst = append(dst, tmp[:4]...)
	for _, h := range m.GenHashes {
		binary.BigEndian.PutUint64(tmp[:], h)
		dst = append(dst, tmp[:]...)
	}
	return dst
}

// DecodeManifest parses one manifest and validates it.
func DecodeManifest(buf []byte) (Manifest, error) {
	const fixed = 8 + 8 + 8 + 4 + 2 + 4
	if len(buf) < fixed {
		return Manifest{}, fmt.Errorf("%w: %d bytes", ErrBadManifest, len(buf))
	}
	m := Manifest{
		Object:     binary.BigEndian.Uint64(buf),
		Size:       binary.BigEndian.Uint64(buf[8:]),
		Origin:     id.Node(binary.BigEndian.Uint64(buf[16:])),
		SymbolSize: int(binary.BigEndian.Uint32(buf[24:])),
		K:          int(buf[28]),
		R:          int(buf[29]),
	}
	gens := int(binary.BigEndian.Uint32(buf[30:]))
	if gens < 0 || gens > maxGenerations {
		return Manifest{}, fmt.Errorf("%w: %d generations", ErrBadManifest, gens)
	}
	if len(buf) < fixed+8*gens {
		return Manifest{}, fmt.Errorf("%w: truncated hashes", ErrBadManifest)
	}
	m.GenHashes = make([]uint64, gens)
	for i := range m.GenHashes {
		m.GenHashes[i] = binary.BigEndian.Uint64(buf[fixed+8*i:])
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}
