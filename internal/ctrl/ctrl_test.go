package ctrl

import (
	"testing"
	"testing/quick"
)

func TestUpAddAndString(t *testing.T) {
	u := Up{S: 1, D: 2}.Add(Up{S: 3, D: 4})
	if u != (Up{S: 4, D: 6}) {
		t.Fatalf("Add = %v", u)
	}
	if u.String() != "[4,6]" {
		t.Fatalf("String = %q", u.String())
	}
}

func TestMatchExamples(t *testing.T) {
	cases := []struct {
		left, right Up
		want        Stored
	}{
		// Two left sources meet two right destinations: both matched.
		{Up{2, 0}, Up{0, 2}, Stored{M: 2}},
		// Three left sources, one right destination: one matched, two pass.
		{Up{3, 0}, Up{0, 1}, Stored{M: 1, SL: 2}},
		// One left source, three right destinations: one matched, two fed
		// from above.
		{Up{1, 0}, Up{0, 3}, Stored{M: 1, DR: 2}},
		// Mixed: left has a destination too, right has a source too.
		{Up{2, 1}, Up{1, 2}, Stored{M: 2, DL: 1, SR: 1}},
		// Nothing to match.
		{Up{0, 2}, Up{3, 0}, Stored{DL: 2, SR: 3}},
		{Up{0, 0}, Up{0, 0}, Stored{}},
	}
	for _, c := range cases {
		got := Match(c.left, c.right)
		if got != c.want {
			t.Errorf("Match(%v,%v) = %v, want %v", c.left, c.right, got, c.want)
		}
	}
}

func TestUpWordAfterMatch(t *testing.T) {
	s := Match(Up{3, 1}, Up{2, 2}) // M=2, SL=1, DL=1, SR=2, DR=0
	up := s.UpWord()
	if up != (Up{S: 3, D: 1}) {
		t.Fatalf("UpWord = %v, want [3,1]", up)
	}
}

// Matching must conserve demands: every source is matched or forwarded, and
// likewise every destination.
func TestMatchConservationProperty(t *testing.T) {
	f := func(sl, dl, sr, dr uint8) bool {
		left := Up{S: int(sl), D: int(dl)}
		right := Up{S: int(sr), D: int(dr)}
		st := Match(left, right)
		if st.M+st.SL != left.S || st.M+st.DR != right.D {
			return false
		}
		if st.DL != left.D || st.SR != right.S {
			return false
		}
		up := st.UpWord()
		return up.S == left.S+right.S-st.M && up.D == left.D+right.D-st.M
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStoredPendingAndTotal(t *testing.T) {
	if (Stored{}).Pending() {
		t.Error("zero Stored must not be pending")
	}
	for _, s := range []Stored{{M: 1}, {SL: 1}, {DL: 1}, {SR: 1}, {DR: 1}} {
		if !s.Pending() {
			t.Errorf("%v must be pending", s)
		}
		if s.Total() != 1 {
			t.Errorf("%v Total = %d", s, s.Total())
		}
	}
}

func TestUseFlags(t *testing.T) {
	if UseNone.HasS() || UseNone.HasD() {
		t.Error("UseNone must use nothing")
	}
	if !UseS.HasS() || UseS.HasD() {
		t.Error("UseS wrong")
	}
	if UseD.HasS() || !UseD.HasD() {
		t.Error("UseD wrong")
	}
	if !UseSD.HasS() || !UseSD.HasD() {
		t.Error("UseSD wrong")
	}
	if UseNone.WithS() != UseS || UseNone.WithD() != UseD {
		t.Error("With* from none wrong")
	}
	if UseS.WithD() != UseSD || UseD.WithS() != UseSD {
		t.Error("With* combine wrong")
	}
	if UseSD.WithS() != UseSD || UseSD.WithD() != UseSD {
		t.Error("With* idempotence wrong")
	}
}

func TestUseString(t *testing.T) {
	cases := map[Use]string{
		UseNone: "[null,null]",
		UseS:    "[s,null]",
		UseD:    "[d,null]",
		UseSD:   "[s,d]",
	}
	for u, want := range cases {
		if got := u.String(); got != want {
			t.Errorf("Use(%d).String() = %q, want %q", u, got, want)
		}
	}
	if Use(9).String() == "" {
		t.Error("invalid use must still render")
	}
}

func TestDownString(t *testing.T) {
	if got := (Down{Use: UseSD, Xs: 1, Xd: 2}).String(); got != "[s,d] xs=1 xd=2" {
		t.Errorf("Down.String = %q", got)
	}
	if got := (Down{Use: UseNone}).String(); got != "[null,null]" {
		t.Errorf("Down.String = %q", got)
	}
	if got := (Down{Use: UseS, Xs: 3}).String(); got != "[s,null] xs=3" {
		t.Errorf("Down.String = %q", got)
	}
	if got := (Down{Use: UseD, Xd: 4}).String(); got != "[d,null] xd=4" {
		t.Errorf("Down.String = %q", got)
	}
}

func TestEncodeDecodeUp(t *testing.T) {
	for _, u := range []Up{{}, {1, 0}, {0, 1}, {123456, 654321}} {
		b := make([]byte, UpWordBytes)
		n, err := EncodeUpInto(b, u)
		if err != nil {
			t.Fatal(err)
		}
		if n != UpWordBytes {
			t.Fatalf("encoded Up is %d bytes", n)
		}
		got, err := DecodeUp(b)
		if err != nil {
			t.Fatal(err)
		}
		if got != u {
			t.Fatalf("round trip %v -> %v", u, got)
		}
	}
	if _, err := EncodeUpInto(make([]byte, UpWordBytes), Up{S: -1}); err == nil {
		t.Error("negative counter: want error")
	}
	if _, err := EncodeUpInto(make([]byte, UpWordBytes-1), Up{}); err == nil {
		t.Error("short encode buffer: want error")
	}
	if _, err := DecodeUp([]byte{1, 2}); err == nil {
		t.Error("short buffer: want error")
	}
}

func TestEncodeDecodeStored(t *testing.T) {
	s := Stored{M: 5, SL: 4, DL: 3, SR: 2, DR: 1}
	b := make([]byte, StoredWordBytes)
	n, err := EncodeStoredInto(b, s)
	if err != nil {
		t.Fatal(err)
	}
	if n != StoredWordBytes {
		t.Fatalf("encoded Stored is %d bytes", n)
	}
	got, err := DecodeStored(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("round trip %v -> %v", s, got)
	}
	want := []byte{0, 0, 0, 5, 0, 0, 0, 4, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 1}
	if string(b) != string(want) {
		t.Fatalf("encoded %v as % x, want % x", s, b, want)
	}
	// The first counter out of range names itself, in field order.
	for _, c := range []struct {
		s    Stored
		want string
	}{
		{Stored{M: -1, DR: -2}, "ctrl: field M out of range: -1"},
		{Stored{SL: -3, DL: -1}, "ctrl: field SL out of range: -3"},
		{Stored{DL: 1 << 33}, "ctrl: field DL out of range: 8589934592"},
		{Stored{SR: -4}, "ctrl: field SR out of range: -4"},
		{Stored{DR: -2}, "ctrl: field DR out of range: -2"},
	} {
		if _, err := EncodeStoredInto(make([]byte, StoredWordBytes), c.s); err == nil || err.Error() != c.want {
			t.Errorf("EncodeStoredInto(%v): err=%v, want %q", c.s, err, c.want)
		}
	}
	if _, err := EncodeStoredInto(make([]byte, StoredWordBytes-1), s); err == nil {
		t.Error("short encode buffer: want error")
	}
	if _, err := DecodeStored(nil); err == nil {
		t.Error("nil buffer: want error")
	}
}

func TestEncodeDecodeDown(t *testing.T) {
	for _, d := range []Down{
		{Use: UseNone},
		{Use: UseS, Xs: 7},
		{Use: UseD, Xd: 9},
		{Use: UseSD, Xs: 1, Xd: 2},
	} {
		b := make([]byte, DownWordBytes)
		n, err := EncodeDownInto(b, d)
		if err != nil {
			t.Fatal(err)
		}
		if n != DownWordBytes {
			t.Fatalf("encoded Down is %d bytes", n)
		}
		got, err := DecodeDown(b)
		if err != nil {
			t.Fatal(err)
		}
		if got != d {
			t.Fatalf("round trip %v -> %v", d, got)
		}
	}
	buf := make([]byte, DownWordBytes)
	if _, err := EncodeDownInto(buf, Down{Use: Use(7)}); err == nil {
		t.Error("bad tag: want error")
	}
	if _, err := EncodeDownInto(buf, Down{Use: UseS, Xs: -3}); err == nil {
		t.Error("negative selector: want error")
	}
	if _, err := EncodeDownInto(buf[:DownWordBytes-1], Down{}); err == nil {
		t.Error("short encode buffer: want error")
	}
	if _, err := DecodeDown([]byte{9, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("bad tag byte: want error")
	}
	if _, err := DecodeDown([]byte{0}); err == nil {
		t.Error("short buffer: want error")
	}
}

// Round-trip property over random words: encoding is total on valid inputs
// and decoding inverts it; sizes are constant.
func TestEncodingRoundTripProperty(t *testing.T) {
	f := func(s, d uint16, use uint8, xs, xd uint16) bool {
		u := Up{S: int(s), D: int(d)}
		bu := make([]byte, UpWordBytes)
		if n, err := EncodeUpInto(bu, u); err != nil || n != UpWordBytes {
			return false
		}
		ru, err := DecodeUp(bu)
		if err != nil || ru != u {
			return false
		}
		dn := Down{Use: Use(use % 4), Xs: int(xs), Xd: int(xd)}
		bd := make([]byte, DownWordBytes)
		if n, err := EncodeDownInto(bd, dn); err != nil || n != DownWordBytes {
			return false
		}
		rd, err := DecodeDown(bd)
		return err == nil && rd == dn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
