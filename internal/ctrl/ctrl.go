// Package ctrl defines the control information exchanged on CST links by
// the configuration and scheduling algorithm (paper §2.2, §3):
//
//   - Up (C_U): flows child→parent in Phase 1 — the number of sources and
//     destinations in the child's subtree that still need the parent link.
//   - Stored (C_S): per-switch state computed in Step 1.3 —
//     [M, S_L−min(S_L,M), D_L, S_R, D_R−min(D_R,M)].
//   - Down (C_{D-L} / C_{D-R}): flows parent→child in every Phase 2 round —
//     which parent-link halves the child must use this round ([s,null],
//     [d,null], [s,d] or [null,null]) plus the x_s / x_d leaf selectors of
//     Definition 2.
//
// Theorem 5 claims each switch stores and forwards a constant number of
// words; the binary encodings here make that measurable: experiment E4
// checks that encoded sizes do not grow with N or w.
package ctrl

import (
	"encoding/binary"
	"fmt"
)

// Up is the Phase 1 child→parent word C_U = [S, D]: S sources and D
// destinations in the child's subtree require the link to the parent.
// A leaf PE sends [1,0] (source), [0,1] (destination) or [0,0].
type Up struct {
	S, D int
}

// String renders e.g. "[2,1]".
func (u Up) String() string { return fmt.Sprintf("[%d,%d]", u.S, u.D) }

// Add pointwise sums two Up words.
func (u Up) Add(v Up) Up { return Up{S: u.S + v.S, D: u.D + v.D} }

// Stored is the per-switch state C_S retained at the end of Phase 1 and
// decremented as communications are scheduled in Phase 2. The five fields
// are the five communication types of paper Fig. 4(a).
type Stored struct {
	// M is the number of still-unscheduled source/destination pairs matched
	// at this switch (type 1; they all need the l_i→r_o connection).
	M int
	// SL is S_L − min(S_L, M): unmatched sources from the left child that
	// pass upward (type 4).
	SL int
	// DL is D_L: destinations in the left subtree fed from above (type 3).
	DL int
	// SR is S_R: sources from the right child that pass upward (type 2).
	SR int
	// DR is D_R − min(D_R, M): unmatched destinations in the right subtree
	// fed from above (type 5).
	DR int
}

// Match computes the Step 1.3 state at a switch from its children's Up
// words: M = min(S_L, D_R) matched pairs (Lemma 1 makes count-only matching
// sound), the remainder classified into the other four types.
func Match(left, right Up) Stored {
	m := left.S
	if right.D < m {
		m = right.D
	}
	return Stored{
		M:  m,
		SL: left.S - m,
		DL: left.D,
		SR: right.S,
		DR: right.D - m,
	}
}

// UpWord returns the C_U word this switch forwards to its parent:
// [SL + SR, DL + DR] after matching.
func (s Stored) UpWord() Up {
	return Up{S: s.SL + s.SR, D: s.DL + s.DR}
}

// Pending reports whether any communication still needs this switch.
func (s Stored) Pending() bool {
	return s.M > 0 || s.SL > 0 || s.DL > 0 || s.SR > 0 || s.DR > 0
}

// Total returns the number of still-unscheduled communication demands at
// this switch (a matched pair counts once).
func (s Stored) Total() int { return s.M + s.SL + s.DL + s.SR + s.DR }

// String renders e.g. "{M:1 SL:0 DL:2 SR:1 DR:0}".
func (s Stored) String() string {
	return fmt.Sprintf("{M:%d SL:%d DL:%d SR:%d DR:%d}", s.M, s.SL, s.DL, s.SR, s.DR)
}

// Use encodes which halves of the parent link the child must drive this
// round (the C_{D-L_1} / C_{D-R_1} component of the Down word).
type Use uint8

const (
	// UseNone is [null, null]: the parent link is idle this round.
	UseNone Use = iota
	// UseS is [s, null]: the upward half carries a source this round.
	UseS
	// UseD is [d, null]: the downward half feeds a destination this round.
	UseD
	// UseSD is [s, d]: both halves are in use this round.
	UseSD
)

// String renders the paper's notation: "[null,null]", "[s,null]",
// "[d,null]" or "[s,d]".
func (u Use) String() string {
	switch u {
	case UseNone:
		return "[null,null]"
	case UseS:
		return "[s,null]"
	case UseD:
		return "[d,null]"
	case UseSD:
		return "[s,d]"
	default:
		return fmt.Sprintf("Use(%d)", uint8(u))
	}
}

// HasS reports whether the upward link half is used.
func (u Use) HasS() bool { return u == UseS || u == UseSD }

// HasD reports whether the downward link half is used.
func (u Use) HasD() bool { return u == UseD || u == UseSD }

// WithS returns u with the upward half marked used.
func (u Use) WithS() Use {
	if u.HasD() {
		return UseSD
	}
	return UseS
}

// WithD returns u with the downward half marked used.
func (u Use) WithD() Use {
	if u.HasS() {
		return UseSD
	}
	return UseD
}

// Down is the Phase 2 parent→child word C_{D-L} = [Use, x_s, x_d].
// Xs selects the Xs-th pending upward source of the child's subtree
// (counting pending sources to its left, Definition 2); Xd selects the
// Xd-th pending downward destination (counting pending destinations to its
// right). The selector is only meaningful when the corresponding link half
// is in use.
type Down struct {
	Use    Use
	Xs, Xd int
}

// String renders e.g. "[s,d] xs=1 xd=0".
func (d Down) String() string {
	switch d.Use {
	case UseNone:
		return d.Use.String()
	case UseS:
		return fmt.Sprintf("%s xs=%d", d.Use, d.Xs)
	case UseD:
		return fmt.Sprintf("%s xd=%d", d.Use, d.Xd)
	default:
		return fmt.Sprintf("%s xs=%d xd=%d", d.Use, d.Xs, d.Xd)
	}
}

// Encoding sizes: every word encodes into a fixed number of bytes,
// independent of N and w — the executable form of Theorem 5's
// "constant number of words".
const (
	// UpWordBytes is the encoded size of an Up word.
	UpWordBytes = 8
	// StoredWordBytes is the encoded size of a Stored word.
	StoredWordBytes = 20
	// DownWordBytes is the encoded size of a Down word.
	DownWordBytes = 9
)

// EncodeUpInto serializes u into buf, which must hold at least UpWordBytes
// (two big-endian uint32 counters), and returns the encoded size. It allocates nothing, so engines that only
// need wire-size accounting can reuse one scratch buffer across every word.
func EncodeUpInto(buf []byte, u Up) (int, error) {
	if len(buf) < UpWordBytes {
		return 0, fmt.Errorf("ctrl: Up buffer needs %d bytes, got %d", UpWordBytes, len(buf))
	}
	if err := checkCounter("S", u.S); err != nil {
		return 0, err
	}
	if err := checkCounter("D", u.D); err != nil {
		return 0, err
	}
	binary.BigEndian.PutUint32(buf[0:], uint32(u.S))
	binary.BigEndian.PutUint32(buf[4:], uint32(u.D))
	return UpWordBytes, nil
}

// DecodeUp reverses EncodeUpInto.
func DecodeUp(b []byte) (Up, error) {
	if len(b) != UpWordBytes {
		return Up{}, fmt.Errorf("ctrl: Up word must be %d bytes, got %d", UpWordBytes, len(b))
	}
	return Up{
		S: int(binary.BigEndian.Uint32(b[0:])),
		D: int(binary.BigEndian.Uint32(b[4:])),
	}, nil
}

// EncodeStoredInto serializes s into buf, which must hold at least
// StoredWordBytes (five big-endian uint32 counters), and returns the
// encoded size without allocating.
func EncodeStoredInto(buf []byte, s Stored) (int, error) {
	if len(buf) < StoredWordBytes {
		return 0, fmt.Errorf("ctrl: Stored buffer needs %d bytes, got %d", StoredWordBytes, len(buf))
	}
	if err := checkCounter("M", s.M); err != nil {
		return 0, err
	}
	if err := checkCounter("SL", s.SL); err != nil {
		return 0, err
	}
	if err := checkCounter("DL", s.DL); err != nil {
		return 0, err
	}
	if err := checkCounter("SR", s.SR); err != nil {
		return 0, err
	}
	if err := checkCounter("DR", s.DR); err != nil {
		return 0, err
	}
	binary.BigEndian.PutUint32(buf[0:], uint32(s.M))
	binary.BigEndian.PutUint32(buf[4:], uint32(s.SL))
	binary.BigEndian.PutUint32(buf[8:], uint32(s.DL))
	binary.BigEndian.PutUint32(buf[12:], uint32(s.SR))
	binary.BigEndian.PutUint32(buf[16:], uint32(s.DR))
	return StoredWordBytes, nil
}

// DecodeStored reverses EncodeStoredInto.
func DecodeStored(b []byte) (Stored, error) {
	if len(b) != StoredWordBytes {
		return Stored{}, fmt.Errorf("ctrl: Stored word must be %d bytes, got %d", StoredWordBytes, len(b))
	}
	return Stored{
		M:  int(binary.BigEndian.Uint32(b[0:])),
		SL: int(binary.BigEndian.Uint32(b[4:])),
		DL: int(binary.BigEndian.Uint32(b[8:])),
		SR: int(binary.BigEndian.Uint32(b[12:])),
		DR: int(binary.BigEndian.Uint32(b[16:])),
	}, nil
}

// EncodeDownInto serializes d into buf, which must hold at least
// DownWordBytes (a use tag plus two big-endian uint32 selectors), and
// returns the encoded size without allocating.
func EncodeDownInto(buf []byte, d Down) (int, error) {
	if len(buf) < DownWordBytes {
		return 0, fmt.Errorf("ctrl: Down buffer needs %d bytes, got %d", DownWordBytes, len(buf))
	}
	if d.Use > UseSD {
		return 0, fmt.Errorf("ctrl: invalid use tag %d", d.Use)
	}
	if err := checkCounter("Xs", d.Xs); err != nil {
		return 0, err
	}
	if err := checkCounter("Xd", d.Xd); err != nil {
		return 0, err
	}
	buf[0] = byte(d.Use)
	binary.BigEndian.PutUint32(buf[1:], uint32(d.Xs))
	binary.BigEndian.PutUint32(buf[5:], uint32(d.Xd))
	return DownWordBytes, nil
}

// DecodeDown reverses EncodeDownInto.
func DecodeDown(b []byte) (Down, error) {
	if len(b) != DownWordBytes {
		return Down{}, fmt.Errorf("ctrl: Down word must be %d bytes, got %d", DownWordBytes, len(b))
	}
	if b[0] > byte(UseSD) {
		return Down{}, fmt.Errorf("ctrl: invalid use tag %d", b[0])
	}
	return Down{
		Use: Use(b[0]),
		Xs:  int(binary.BigEndian.Uint32(b[1:])),
		Xd:  int(binary.BigEndian.Uint32(b[5:])),
	}, nil
}

func checkCounter(name string, v int) error {
	if v < 0 || v > int(^uint32(0)) {
		return fmt.Errorf("ctrl: field %s out of range: %d", name, v)
	}
	return nil
}
