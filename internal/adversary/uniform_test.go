package adversary

import (
	"testing"

	"doda/internal/bitset"
	"doda/internal/core"
	"doda/internal/graph"
	"doda/internal/rng"
	"doda/internal/seq"
)

// TestUniformMatchesGenerated checks that Next and NextBatch play what
// Generated over seq.UniformGen plays from the same seed, on both sides
// of the pair-table bound, and leave the source where it leaves its own.
func TestUniformMatchesGenerated(t *testing.T) {
	for _, n := range []int{2, 3, 64, 512, 1024, 1025} {
		src := rng.New(uint64(n))
		u, err := NewUniform("", n, src)
		if err != nil {
			t.Fatal(err)
		}
		ref := rng.New(uint64(n))
		g, err := NewGenerated("uniform", n, seq.UniformGen(n, ref))
		if err != nil {
			t.Fatal(err)
		}
		if u.Name() != "uniform" || u.N() != n {
			t.Fatalf("n=%d: name %q, N %d", n, u.Name(), u.N())
		}
		got, want := make([]seq.Interaction, 100), make([]seq.Interaction, 100)
		for t0 := 0; t0 < 1000; t0 += 101 {
			if k := u.NextBatch(t0, nil, got); k != len(got) || g.NextBatch(t0, nil, want) != k {
				t.Fatalf("n=%d: short batch", n)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d t=%d: NextBatch drew %v, Generated %v", n, t0+i, got[i], want[i])
				}
			}
			gi, gok := u.Next(t0+100, nil)
			wi, wok := g.Next(t0+100, nil)
			if gi != wi || !gok || !wok {
				t.Fatalf("n=%d t=%d: Next drew %v, Generated %v", n, t0+100, gi, wi)
			}
		}
		if src.State() != ref.State() {
			t.Fatalf("n=%d: source states differ", n)
		}
	}
	if _, err := NewUniform("u", 1, rng.New(1)); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := NewUniform("u", 4, nil); err == nil {
		t.Error("nil source accepted")
	}
}

// screenReplay plays NextOwned's contract one Source.Pair at a time: it
// consumes at most span pairs from t and returns the first whose two
// members are both in owners.
func screenReplay(src *rng.Source, n, t, span int, owners []uint64) (seq.Interaction, int, bool) {
	for i := 0; i < span; i++ {
		a, b := src.Pair(n)
		if bitset.TestWord(owners, a) && bitset.TestWord(owners, b) {
			return seq.Interaction{U: graph.NodeID(a), V: graph.NodeID(b)}, t + i, true
		}
	}
	return seq.Interaction{}, 0, false
}

// checkScreen plays one sequence of NextOwned calls against the replay.
// Each step of ops either drops a node (an owner loses its data), makes
// the next draw one Lemire's method rejects, restores every owner (the
// adversary is reused for a new run), or calls NextOwned with a span
// taken from the step.
func checkScreen(t *testing.T, n int, seed uint64, ops []byte) {
	t.Helper()
	src, ref := rng.New(seed), rng.New(seed)
	u, err := NewUniform("u", n, src)
	if err != nil {
		t.Fatal(err)
	}
	all := func() []uint64 {
		w := make([]uint64, bitset.WordsFor(n))
		for v := 0; v < n; v++ {
			bitset.SetWordBit(w, v)
		}
		return w
	}
	owners, owned := all(), n
	now := 0
	for i, op := range ops {
		switch {
		case op < 64 && owned > 1:
			// Drop a pseudo-random owner.
			v := int(uint64(op)*0x9e3779b97f4a7c15>>7) % n
			for !bitset.TestWord(owners, v) {
				v = (v + 1) % n
			}
			bitset.ClearWordBit(owners, v)
			owned--
		case op < 72:
			st := src.State()
			st[1] = 0
			src.Restore(st)
			ref.Restore(st)
		case op == 72:
			owners, owned = all(), n
		default:
			span := 1 + int(op-73)*int(op-73)
			git, gat, gok := u.NextOwned(now, span, owners)
			wit, wat, wok := screenReplay(ref, n, now, span, owners)
			if git != wit || gat != wat || gok != wok {
				t.Fatalf("n=%d seed=%d op %d (span %d at t=%d, %d owners): NextOwned gave %v at %d ok %v, replay %v at %d ok %v",
					n, seed, i, span, now, owned, git, gat, gok, wit, wat, wok)
			}
			if src.State() != ref.State() {
				t.Fatalf("n=%d seed=%d op %d: source state differs from the replay's", n, seed, i)
			}
			if gok {
				now = gat + 1
			} else {
				now += span
			}
		}
	}
}

// TestUniformScreen runs checkScreen over a fixed set of sizes, either
// side of the pair-table bound, with drops, forced rejections and a
// reset between calls.
func TestUniformScreen(t *testing.T) {
	ops := make([]byte, 0, 300)
	gen := rng.New(99)
	for i := 0; i < 300; i++ {
		ops = append(ops, byte(gen.Intn(256)))
	}
	ops[150] = 72
	for _, n := range []int{2, 3, 63, 64, 65, 512, 1024, 1025} {
		for seed := uint64(1); seed <= 3; seed++ {
			checkScreen(t, n, seed, ops)
		}
	}
}

// FuzzUniformScreen fuzzes checkScreen's size up to 1100, seed and
// operation list: every NextOwned must return the first pair of a
// Source.Pair replay whose members both own data, at its time, and
// leave the source in the replay's state.
func FuzzUniformScreen(f *testing.F) {
	f.Add(uint16(510), uint64(1), []byte{200, 10, 200, 64, 255, 20, 30, 200, 72, 200})
	f.Add(uint16(0), uint64(2), []byte{73, 73, 66, 74})
	f.Add(uint16(1022), uint64(3), []byte{1, 2, 3, 250, 65, 250, 4, 5, 250})
	f.Add(uint16(1023), uint64(4), []byte{255, 255, 9, 255})
	f.Add(uint16(62), uint64(5), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 200, 70, 200})
	f.Fuzz(func(t *testing.T, n16 uint16, seed uint64, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		checkScreen(t, 2+int(n16)%1099, seed, ops)
	})
}

// sinkGreedy transfers to the sink whenever it meets it, as Waiting does.
type sinkGreedy struct{}

func (sinkGreedy) Name() string          { return "sink-greedy" }
func (sinkGreedy) Oblivious() bool       { return true }
func (sinkGreedy) Setup(*core.Env) error { return nil }
func (sinkGreedy) Decide(env *core.Env, it seq.Interaction, _ int) core.Decision {
	return core.DecisionFor(it, env.Sink)
}

// TestUniformScreenedRunsAllocateNothing checks that once its pair set
// exists, a reused adversary's screened runs on a reused engine
// allocate nothing: a new run rebuilds the set in place.
func TestUniformScreenedRunsAllocateNothing(t *testing.T) {
	for _, n := range []int{64, 512, 1025} {
		u, err := NewUniform("u", n, rng.New(uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{N: n, MaxInteractions: 400*n*n + 4000, Provenance: core.ProvenanceCount}
		eng, err := core.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var alg core.Algorithm = sinkGreedy{}
		var adv core.Adversary = u
		if _, err := eng.Run(alg, adv); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := eng.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(alg, adv)
			if err != nil || !res.Terminated {
				t.Fatalf("n=%d: %+v, %v", n, res, err)
			}
		})
		if allocs != 0 {
			t.Errorf("n=%d: a screened run allocates %v objects, want 0", n, allocs)
		}
	}
}
