package padr

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/fault"
	"cst/internal/topology"
)

// FuzzEngine drives the full engine with parser-accepted expressions: every
// accepted set must schedule in exactly `width` rounds, pass the
// independent verifier, and respect the O(1) power bound.
func FuzzEngine(f *testing.F) {
	for _, seed := range []string{
		"()", "(())", "(()())", "((((((()))))))", "(.)(.)(.)(.)",
		"((.)((.)..).)(.)", "((((....))))....",
	} {
		f.Add(seed)
	}
	trees := map[int]*topology.Tree{}
	f.Fuzz(func(t *testing.T, expr string) {
		if len(expr) > 256 {
			return
		}
		s, err := comm.Parse(expr)
		if err != nil {
			return
		}
		tr := trees[s.N]
		if tr == nil {
			tr, err = topology.New(s.N)
			if err != nil {
				t.Fatal(err)
			}
			trees[s.N] = tr
		}
		e, err := New(tr, s)
		if err != nil {
			t.Fatalf("engine rejected a parser-accepted set %q: %v", expr, err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("run failed for %q: %v", expr, err)
		}
		if err := res.Schedule.VerifyOptimal(tr); err != nil {
			t.Fatalf("verification failed for %q: %v", expr, err)
		}
		if res.Report.MaxUnits() > 6 {
			t.Fatalf("power bound violated for %q: %s", expr, res.Report.Summary())
		}
	})
}

// FuzzResetRun turns bytes into a stream of sets at N <= 64, run through
// one pooled engine on persistent crossbars, and checks each run against a
// new engine per set on persistent crossbars of its own: digest,
// InitialStored, and every switch's configuration, units and alternations.
// The first byte picks N and the selection rule. Each set then opens with a
// header byte: bits 0-1 give 1-4 short pairs (bit 2 lengthens them), bit 3
// draws a large random set instead, bit 4 runs it mirrored, bit 5 appends
// one unchecked communication (the set is then usually invalid, and Reset
// and New must both refuse it), and bit 6 arms an injector whose one fault
// both engines must meet alike. Pairs cost two bytes each.
func FuzzResetRun(f *testing.F) {
	f.Add([]byte{3, 0x01, 0, 1, 0x03, 9, 2, 4, 1, 30, 5, 40, 3, 0x08, 77, 0x11, 5, 2})
	f.Add([]byte{2, 0x00, 3, 1, 0x21, 4, 2, 6, 9, 1, 2, 0x02, 12, 3, 20, 1, 40, 2})
	f.Add([]byte{0x07, 0x43, 1, 2, 9, 3, 20, 1, 33, 0, 2, 0x1c, 5, 0x00, 7, 1})
	f.Add([]byte{1, 0x18, 3, 0x40, 1, 1, 0, 5, 0x05, 0, 2, 9, 6, 0x61, 8, 1, 4, 2, 0x40, 22})
	trees := map[int]*topology.Tree{}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 512 {
			return
		}
		n := 8 << (data[0] % 4)
		var opts []Option
		if data[0]&4 != 0 {
			opts = append(opts, WithSelection(Conservative))
		}
		tr := trees[n]
		if tr == nil {
			tr = topology.MustNew(n)
			trees[n] = tr
		}
		in := data[1:]
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		poolX, refX := circuit.NewSwitches(tr), circuit.NewSwitches(tr)
		var pool *Engine
		for step := 0; step < 32 && len(in) > 0; step++ {
			h := next()
			s := &comm.Set{N: n}
			if h&8 != 0 {
				var err error
				if s, err = comm.RandomWellNested(rand.New(rand.NewSource(int64(next()))), n, n/4); err != nil {
					t.Fatal(err)
				}
			} else {
				for k := int(h&3) + 1; k > 0; k-- {
					src, span := int(next())%n, next()
					length := 1 + int(span&3)
					if h&4 != 0 {
						length = 1 + int(span)%(n-1)
					}
					c := comm.Comm{Src: src, Dst: src + length}
					trial := &comm.Set{N: n, Comms: append(slices.Clone(s.Comms), c)}
					if trial.Validate() == nil && trial.IsWellNested() {
						s = trial
					}
				}
			}
			if h&0x20 != 0 {
				src := int(next()) % n
				s = &comm.Set{N: n, Comms: append(slices.Clone(s.Comms), comm.Comm{Src: src, Dst: src + 1 + int(next())%n})}
			}
			valid := s.Validate() == nil && s.IsWellNested()
			var plan []fault.Fault
			if h&0x40 != 0 {
				b := next()
				round := int(b>>4&3) - 1 // Phase1, or rounds 0-2
				plan = []fault.Fault{{Kind: fault.Kind(b % 5), Node: topology.Node(1 + int(next())%(2*n-1)), Round: round}}
			}
			pinj, rinj := fault.New(plan), fault.New(plan)
			if plan == nil {
				pinj, rinj = nil, nil
			}
			popts := append(slices.Clone(opts), WithReflection(h&0x10 != 0), WithFaults(pinj))
			var perr error
			if pool == nil {
				pool, perr = New(tr, s, append(popts, WithCrossbars(poolX))...)
			} else {
				perr = pool.Reset(s, popts...)
			}
			ref, rerr := New(tr, s, append(slices.Clone(opts), WithReflection(h&0x10 != 0), WithFaults(rinj), WithCrossbars(refX))...)
			if (perr == nil) != valid || (rerr == nil) != valid {
				t.Fatalf("step %d: %s (valid %v): pooled Reset err=%v, New err=%v", step, s, valid, perr, rerr)
			}
			if !valid {
				continue
			}
			got, gerr := pool.Run()
			want, werr := ref.Run()
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("step %d: %s: pooled run err=%v, fresh run err=%v", step, s, gerr, werr)
			}
			if gerr == nil {
				if g, w := digest(got), digest(want); !reflect.DeepEqual(g, w) {
					t.Fatalf("step %d: %s: pooled run diverged from fresh\ngot:  %+v\nwant: %+v", step, s, g, w)
				}
				if !reflect.DeepEqual(got.InitialStored, want.InitialStored) {
					t.Fatalf("step %d: %s: InitialStored diverged", step, s)
				}
				if pinj == nil {
					checkSparse(t, pool)
				}
			}
			if err := sameFabric(poolX, refX); err != nil {
				t.Fatalf("step %d: %s: %v", step, s, err)
			}
		}
	})
}
