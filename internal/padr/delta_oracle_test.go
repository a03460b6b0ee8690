package padr

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cst/internal/circuit"
	"cst/internal/comm"
	"cst/internal/power"
	"cst/internal/topology"
	"cst/internal/xbar"
)

// deltaOracle follows one mutation stream on two engines over the same
// tree, an Apply engine on engine-owned crossbars and an ApplyRounds
// engine on caller-owned crossbars, against a reference: a new engine per
// mutated set, run with RunRounds over persistent crossbars of its own. A
// new engine matches every switch in Phase 1 and walks Phase 2 without
// replay, so the reference shares no incremental state with the engines
// it checks. Each step checks that Apply's result is bit-identical to a
// fresh engine's run, that ApplyRounds reports the same rounds, that both
// delta engines' arenas stay sparse, and that all three fabrics hold the
// same configuration, units and per-output alternations on every switch:
// the power ledger deltaDigest leaves out.
type deltaOracle struct {
	name               string // prefixes failures
	tr                 *topology.Tree
	n                  int
	opts               []Option
	apply, light       *Engine
	lightXbar, refXbar []*xbar.Switch
}

func newDeltaOracle(t testing.TB, tr *topology.Tree, init *comm.Set, opts ...Option) *deltaOracle {
	t.Helper()
	o := &deltaOracle{tr: tr, n: init.N, opts: opts,
		lightXbar: circuit.NewSwitches(tr), refXbar: circuit.NewSwitches(tr)}
	var err error
	if o.apply, err = New(tr, init.Clone(), opts...); err != nil {
		t.Fatalf("oracle New: %v", err)
	}
	if o.light, err = New(tr, init.Clone(), append(opts[:len(opts):len(opts)], WithCrossbars(o.lightXbar))...); err != nil {
		t.Fatal(err)
	}
	if _, err := o.apply.Run(); err != nil {
		t.Fatalf("oracle initial Run: %v", err)
	}
	if _, err := o.light.RunRounds(); err != nil {
		t.Fatalf("oracle initial RunRounds: %v", err)
	}
	o.reference(t, init.Comms)
	return o
}

// reference runs set on a new engine over the reference crossbars.
func (o *deltaOracle) reference(t testing.TB, set []comm.Comm) {
	t.Helper()
	s := &comm.Set{N: o.n, Comms: append([]comm.Comm(nil), set...)}
	ref, err := New(o.tr, s, append(o.opts[:len(o.opts):len(o.opts)], WithCrossbars(o.refXbar))...)
	if err != nil {
		t.Fatalf("%s: reference New: %v", o.name, err)
	}
	if _, err := ref.RunRounds(); err != nil {
		t.Fatalf("%s: reference RunRounds: %v", o.name, err)
	}
}

// step applies d, whose mutated set is next, and checks every surface.
func (o *deltaOracle) step(t testing.TB, d Delta, next []comm.Comm) {
	t.Helper()
	res, err := o.apply.Apply(d)
	if err != nil {
		t.Fatalf("%s: Apply(%+v): %v", o.name, d, err)
	}
	got := deltaDigestOf(t, res)
	want := scratchDigest(t, o.tr, o.n, next, o.opts...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Apply(%+v) diverged from scratch\n got: %+v\nwant: %+v", o.name, d, got, want)
	}
	rounds, err := o.light.ApplyRounds(d)
	if err != nil {
		t.Fatalf("%s: ApplyRounds(%+v): %v", o.name, d, err)
	}
	if rounds != want.nrounds {
		t.Fatalf("%s: ApplyRounds(%+v) = %d rounds, scratch %d", o.name, d, rounds, want.nrounds)
	}
	checkSparse(t, o.apply)
	checkSparse(t, o.light)
	o.reference(t, next)
	if err := sameFabric(o.apply.switches, o.refXbar); err != nil {
		t.Fatalf("%s: Apply(%+v): %v", o.name, d, err)
	}
	if err := sameFabric(o.lightXbar, o.refXbar); err != nil {
		t.Fatalf("%s: ApplyRounds(%+v): %v", o.name, d, err)
	}
}

// reanchor runs cur from scratch on both delta engines and the reference,
// the way a delta session falls back after a failed apply. Reset zeroes
// the Apply engine's own crossbars, so the other two fabrics are zeroed
// alongside it.
func (o *deltaOracle) reanchor(t testing.TB, cur []comm.Comm) {
	t.Helper()
	for _, sw := range append(o.lightXbar[1:len(o.lightXbar):len(o.lightXbar)], o.refXbar[1:]...) {
		sw.Zero()
	}
	set := func() *comm.Set { return &comm.Set{N: o.n, Comms: append([]comm.Comm(nil), cur...)} }
	if err := o.apply.Reset(set()); err != nil {
		t.Fatalf("%s: re-anchor Reset: %v", o.name, err)
	}
	if _, err := o.apply.Run(); err != nil {
		t.Fatalf("%s: re-anchor Run: %v", o.name, err)
	}
	if err := o.light.Reset(set()); err != nil {
		t.Fatalf("%s: re-anchor Reset: %v", o.name, err)
	}
	if _, err := o.light.RunRounds(); err != nil {
		t.Fatalf("%s: re-anchor RunRounds: %v", o.name, err)
	}
	o.reference(t, cur)
	checkSparse(t, o.apply)
	checkSparse(t, o.light)
	if err := sameFabric(o.apply.switches, o.refXbar); err != nil {
		t.Fatalf("%s: re-anchor: %v", o.name, err)
	}
}

// reject checks that an invalid delta is refused by both delta engines,
// which stay Ready and sparse on their old set.
func (o *deltaOracle) reject(t testing.TB, d Delta) {
	t.Helper()
	if _, err := o.apply.Apply(d); !errors.Is(err, ErrDelta) {
		t.Fatalf("%s: Apply(%+v): err=%v, want ErrDelta", o.name, d, err)
	}
	if _, err := o.light.ApplyRounds(d); !errors.Is(err, ErrDelta) {
		t.Fatalf("%s: ApplyRounds(%+v): err=%v, want ErrDelta", o.name, d, err)
	}
	if !o.apply.Ready() || !o.light.Ready() {
		t.Fatalf("%s: rejected delta %+v cost an engine its readiness", o.name, d)
	}
	checkSparse(t, o.apply)
	checkSparse(t, o.light)
}

// sameFabric compares two crossbar arenas switch by switch.
func sameFabric(got, want []*xbar.Switch) error {
	for u := 1; u < len(want); u++ {
		g, w := got[u], want[u]
		if g.Config() != w.Config() || g.Units() != w.Units() {
			return fmt.Errorf("switch %d holds %s at %d units, reference %s at %d units",
				u, g.Config(), g.Units(), w.Config(), w.Units())
		}
		for _, out := range []xbar.Side{xbar.L, xbar.R, xbar.P} {
			if g.Alternations(out) != w.Alternations(out) {
				return fmt.Errorf("switch %d output %s alternated %d times, reference %d",
					u, out, g.Alternations(out), w.Alternations(out))
			}
		}
	}
	return nil
}

// differentialStream rebuilds TestDeltaDifferential's stream for seed: the
// initial set, three deltas and the set after each.
func differentialStream(t testing.TB, seed int) (init *comm.Set, dels []Delta, sets [][]comm.Comm) {
	t.Helper()
	ns := []int{8, 16, 32, 64}
	rng := rand.New(rand.NewSource(int64(seed)))
	n := ns[seed%len(ns)]
	init, err := comm.RandomWellNested(rng, n, 1+rng.Intn(n/4+1))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	cur := append([]comm.Comm(nil), init.Comms...)
	for step := 0; step < 3; step++ {
		var d Delta
		d, cur = genDelta(rng, n, cur)
		dels = append(dels, d)
		sets = append(sets, append([]comm.Comm(nil), cur...))
	}
	return init, dels, sets
}

// TestDeltaCrossbarOracle pins the crossbar state after every Apply and
// ApplyRounds step: on TestDeltaDifferential's 500 streams under both
// selection rules, and on one delta-churn-shaped stream (N=1024, 64
// occupied slots, 90% overlap), every switch must hold what a from-scratch
// run on persistent crossbars leaves behind.
func TestDeltaCrossbarOracle(t *testing.T) {
	trees := map[int]*topology.Tree{}
	for seed := 0; seed < 500; seed++ {
		init, dels, sets := differentialStream(t, seed)
		tr := trees[init.N]
		if tr == nil {
			tr = topology.MustNew(init.N)
			trees[init.N] = tr
		}
		for _, sel := range []Selection{Greedy, Conservative} {
			o := newDeltaOracle(t, tr, init, WithSelection(sel))
			o.name = fmt.Sprintf("seed %d %s", seed, sel)
			for i, d := range dels {
				o.step(t, d, sets[i])
			}
		}
	}
	steps := 100
	if testing.Short() {
		steps = 30
	}
	st := buildDeltaBench(t, 1024, 64, 0.9, steps, 42)
	o := newDeltaOracle(t, st.tr, st.start)
	o.name = "delta-churn"
	for i, d := range st.dels {
		if i%25 == 24 {
			o.reanchor(t, st.sets[i-1].Comms) // voids the records; the next step walks in full
		}
		o.step(t, d, st.sets[i].Comms)
	}
}

// FuzzDeltaApply turns arbitrary bytes into an initial well-nested set at
// N <= 64 and a stream of deltas, mostly valid and biased toward short
// communications so that closed subtrees (some holding nested pairs) occur
// and persist across steps. The first byte also picks the engines'
// options: mirrored crossbars, the conservative rule, stateless power
// (which turns replay off). Every valid step must pass the oracle; every
// invalid one must be refused with both engines still Ready.
func FuzzDeltaApply(f *testing.F) {
	f.Add([]byte{3, 0x0f, 0, 1, 4, 1, 9, 2, 0x05, 0, 20, 1, 0x44, 1, 2})
	f.Add([]byte{2, 0x3c, 0, 3, 1, 1, 8, 1, 12, 0, 0x07, 3, 4, 0, 9, 3, 0x0c, 1, 2, 5, 1})
	f.Add([]byte{1, 0x0f, 0, 0x87, 3, 0x8f, 1, 0x09, 2, 5, 1, 0x86, 0, 4, 0x90})
	f.Add([]byte{3, 0x3f, 0, 7, 2, 3, 8, 1, 40, 0x85, 0x01, 0x0d, 5, 0, 16, 3, 33, 0})
	f.Add([]byte{0x0e, 0x1c, 0, 3, 4, 1, 9, 2, 0x09, 1, 12, 3, 0x2d, 0, 2, 3, 20, 1})
	trees := map[int]*topology.Tree{}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 512 {
			return
		}
		n := 8 << (data[0] % 4)
		var opts []Option
		if data[0]&4 != 0 {
			opts = append(opts, WithReflection(true))
		}
		if data[0]&8 != 0 {
			opts = append(opts, WithSelection(Conservative))
		}
		if data[0]&16 != 0 {
			opts = append(opts, WithMode(power.Stateless))
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
		// decode reads one delta against cur: a header byte (bits 0-1
		// removes, bits 2-4 adds, bit 5 re-anchors the engines on cur
		// first, bit 7 keeps an invalid add), one byte per remove and two
		// per add. It returns the delta, the mutated set and whether that
		// set is still oriented well-nested.
		var h byte
		decode := func(cur []comm.Comm) (Delta, []comm.Comm, bool) {
			h = next()
			var d Delta
			out := append([]comm.Comm(nil), cur...)
			for r := int(h & 3); r > 0 && len(out) > 0; r-- {
				i := int(next()) % len(out)
				d.Remove = append(d.Remove, out[i])
				out = append(out[:i], out[i+1:]...)
			}
			valid := true
			for a := int(h>>2) & 7; a > 0; a-- {
				src, span := int(next())%n, next()
				length := 1 + int(span&7) // short: inside a 2- to 8-leaf slot
				if span&0x80 != 0 {
					length = 1 + int(span)%(n-1)
				}
				c := comm.Comm{Src: src, Dst: src + length}
				trial := &comm.Set{N: n, Comms: append(append([]comm.Comm(nil), out...), c)}
				if trial.Validate() == nil && trial.IsWellNested() {
					d.Add = append(d.Add, c)
					out = trial.Comms
				} else if h&0x80 != 0 && valid {
					d.Add = append(d.Add, c)
					valid = false
				}
			}
			return d, out, valid
		}
		first, cur, valid := decode(nil)
		if !valid {
			return // the opening delta kept an invalid add
		}
		init := &comm.Set{N: n, Comms: first.Add}
		o := newDeltaOracle(t, tr, init, opts...)
		for step := 0; step < 24 && len(in) > 0; step++ {
			d, out, valid := decode(cur)
			if h&0x20 != 0 {
				o.reanchor(t, cur)
			}
			if !valid {
				o.reject(t, d)
				continue
			}
			o.step(t, d, out)
			cur = out
		}
	})
}

// TestDeltaRoundDoneSeesReplays: a RoundDone observer leaves replay on,
// so ApplyRounds must still hand it every communication of every round,
// the replayed ones included, in the order a walk performs them.
func TestDeltaRoundDoneSeesReplays(t *testing.T) {
	st := buildDeltaBench(t, 1024, 64, 0.9, 20, 7)
	var got [][]comm.Comm
	eng, err := New(st.tr, st.start, WithObserver(Observer{RoundDone: func(_ int, performed []comm.Comm) {
		got = append(got, append([]comm.Comm(nil), performed...))
	}}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunRounds(); err != nil {
		t.Fatal(err)
	}
	replays := 0
	for i, d := range st.dels {
		got = got[:0]
		if _, err := eng.ApplyRounds(d); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		replays += eng.counts.replayed
		if want := scratchDigest(t, st.tr, st.tr.Leaves(), st.sets[i].Comms).rounds; !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: RoundDone saw %v, scratch performs %v", i, got, want)
		}
	}
	if replays == 0 {
		t.Fatal("no apply replayed")
	}
}
