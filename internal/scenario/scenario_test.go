package scenario

import (
	"math"
	"strings"
	"testing"

	"doda/internal/algorithms"
	"doda/internal/core"
	"doda/internal/graph"
	"doda/internal/rng"
	"doda/internal/seq"
)

// models returns one instance of every generative model for table tests.
func models(t *testing.T, n int) map[string]Model {
	t.Helper()
	uni, err := NewUniform(n)
	if err != nil {
		t.Fatal(err)
	}
	em, err := NewEdgeMarkovian(n, 0.1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := EvenSizes(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewCommunity(sizes, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := NewUniform(n)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChurn(inner, 0.05, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Model{"uniform": uni, "edge-markovian": em, "community": cm, "churn": ch}
}

func TestDeterminism(t *testing.T) {
	// Same model, same seed: bit-for-bit identical sequences. A different
	// seed must diverge somewhere in the prefix.
	const n, prefix = 16, 2000
	for name, m := range models(t, n) {
		t.Run(name, func(t *testing.T) {
			a, err := Stream(m, 42)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Stream(m, 42)
			if err != nil {
				t.Fatal(err)
			}
			c, err := Stream(m, 43)
			if err != nil {
				t.Fatal(err)
			}
			diverged := false
			for i := 0; i < prefix; i++ {
				if a.At(i) != b.At(i) {
					t.Fatalf("t=%d: same seed diverged: %v vs %v", i, a.At(i), b.At(i))
				}
				if a.At(i) != c.At(i) {
					diverged = true
				}
			}
			if !diverged {
				t.Error("seeds 42 and 43 produced identical prefixes")
			}
		})
	}
}

func TestGeneratedInteractionsAreValid(t *testing.T) {
	const n, prefix = 11, 3000
	for name, m := range models(t, n) {
		t.Run(name, func(t *testing.T) {
			st, err := Stream(m, 7)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < prefix; i++ {
				it := st.At(i)
				if it.U < 0 || int(it.V) >= n || it.U >= it.V {
					t.Fatalf("t=%d: invalid interaction %v", i, it)
				}
			}
		})
	}
}

func TestEdgeMarkovianValidation(t *testing.T) {
	for _, tt := range []struct {
		name       string
		n          int
		pUp, pDown float64
	}{
		{name: "too few nodes", n: 1, pUp: 0.5, pDown: 0.5},
		{name: "zero birth", n: 4, pUp: 0, pDown: 0.5},
		{name: "birth above one", n: 4, pUp: 1.5, pDown: 0.5},
		{name: "negative death", n: 4, pUp: 0.5, pDown: -0.1},
		{name: "death above one", n: 4, pUp: 0.5, pDown: 1.1},
		{name: "edge ids past int32", n: 1<<16 + 1, pUp: 0.5, pDown: 0.5},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewEdgeMarkovian(tt.n, tt.pUp, tt.pDown); err == nil {
				t.Error("want error")
			}
		})
	}
	// 2¹⁶ nodes have 2,147,450,880 edges, the most below MaxInt32.
	if _, err := NewEdgeMarkovian(1<<16, 0.5, 0.5); err != nil {
		t.Errorf("n=2^16 refused: %v", err)
	}
}

func TestEdgeMarkovianPersistence(t *testing.T) {
	// With births rare and the live set sparse (stationary density
	// ~0.04, i.e. two or three live edges), interactions should repeat
	// the same pair on consecutive steps far more often than the
	// memoryless uniform model's 1/66.
	m, err := NewEdgeMarkovian(12, 0.002, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Stream(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	repeats := 0
	const steps = 2000
	for i := 1; i < steps; i++ {
		if st.At(i) == st.At(i-1) {
			repeats++
		}
	}
	// Uniform would repeat with probability 1/66 (~30 of 2000); the
	// sparse, slowly-changing live set should repeat much more often.
	if repeats < 100 {
		t.Errorf("only %d/%d consecutive repeats; edge persistence looks broken", repeats, steps)
	}
}

func TestCommunityValidation(t *testing.T) {
	for _, tt := range []struct {
		name   string
		sizes  []int
		pIntra float64
	}{
		{name: "no communities", sizes: nil, pIntra: 0.5},
		{name: "empty community", sizes: []int{3, 0, 2}, pIntra: 0.5},
		{name: "single node", sizes: []int{1}, pIntra: 0.5},
		{name: "negative p", sizes: []int{2, 2}, pIntra: -0.1},
		{name: "p above one", sizes: []int{2, 2}, pIntra: 1.5},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewCommunity(tt.sizes, tt.pIntra); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestCommunityIntraFraction(t *testing.T) {
	// The realised intra-community fraction must track p-intra.
	sizes := []int{5, 5, 5}
	m, err := NewCommunity(sizes, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	commOf := func(u graph.NodeID) int { return int(u) / 5 }
	st, err := Stream(m, 11)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 20000
	intra := 0
	for i := 0; i < steps; i++ {
		it := st.At(i)
		if commOf(it.U) == commOf(it.V) {
			intra++
		}
	}
	frac := float64(intra) / steps
	if frac < 0.70 || frac > 0.80 {
		t.Errorf("intra fraction %.3f, want ~0.75", frac)
	}
}

func TestCommunityDegenerateCases(t *testing.T) {
	// All-singleton communities leave no intra pairs: every interaction
	// must be inter-community even at p-intra = 1.
	m, err := NewCommunity([]int{1, 1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Stream(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		it := st.At(i)
		if it.U == it.V {
			t.Fatalf("self-interaction %v", it)
		}
	}
	// A single community has no inter pairs: p-intra = 0 must still
	// generate (intra) interactions.
	m2, err := NewCommunity([]int{4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := Stream(m2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if it := st2.At(i); int(it.V) >= 4 {
			t.Fatalf("out of range interaction %v", it)
		}
	}
}

func TestEvenSizes(t *testing.T) {
	sizes, err := EvenSizes(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 3, 3}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}
	if _, err := EvenSizes(2, 3); err == nil {
		t.Error("want error: more communities than nodes")
	}
	if _, err := EvenSizes(4, 0); err == nil {
		t.Error("want error: zero communities")
	}
}

func TestChurnValidation(t *testing.T) {
	inner, err := NewUniform(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name            string
		inner           Model
		pFail, pRecover float64
	}{
		{name: "nil inner", inner: nil, pFail: 0.1, pRecover: 0.5},
		{name: "negative fail", inner: inner, pFail: -0.1, pRecover: 0.5},
		{name: "fail above one", inner: inner, pFail: 1.1, pRecover: 0.5},
		{name: "zero recover", inner: inner, pFail: 0.1, pRecover: 0},
		{name: "recover above one", inner: inner, pFail: 0.1, pRecover: 1.5},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewChurn(tt.inner, tt.pFail, tt.pRecover); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestChurnHeavyOfflineStillProgresses(t *testing.T) {
	// Even with most nodes offline most of the time, the generator must
	// keep emitting valid interactions (progress is guaranteed by
	// p-recover > 0).
	inner, err := NewUniform(6)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewChurn(inner, 0.9, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Stream(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		it := st.At(i)
		if it.U < 0 || int(it.V) >= 6 || it.U >= it.V {
			t.Fatalf("t=%d: invalid interaction %v", i, it)
		}
	}
}

func TestReplayTrace(t *testing.T) {
	const trace = `# an example contact trace
time,u,v

3,2,0
1,4,1
1,0,1
2, 3 , 4
`
	s, err := ReplayTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 5 {
		t.Errorf("n = %d, want 5", s.N())
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
	// Stable sort by time: the two t=1 rows keep file order.
	want := []seq.Interaction{
		seq.MustInteraction(4, 1),
		seq.MustInteraction(0, 1),
		seq.MustInteraction(3, 4),
		seq.MustInteraction(2, 0),
	}
	for i, w := range want {
		if s.At(i) != w {
			t.Errorf("step %d = %v, want %v", i, s.At(i), w)
		}
	}
}

func TestReplayTraceErrors(t *testing.T) {
	for _, tt := range []struct {
		name, trace string
	}{
		{name: "empty", trace: ""},
		{name: "comments only", trace: "# nothing\n"},
		{name: "missing field", trace: "1,2\n"},
		{name: "extra field", trace: "1,2,3,4\n"},
		{name: "bad time", trace: "x,1,2\n"},
		{name: "bad node", trace: "1,a,2\n"},
		{name: "negative node", trace: "1,-1,2\n"},
		{name: "self contact", trace: "1,2,2\n"},
		{name: "single node", trace: "1,0,0\n"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReplayTrace(strings.NewReader(tt.trace)); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestRegistryBuildAndRun(t *testing.T) {
	// Every generative scenario builds from its defaults and Gathering
	// terminates against it.
	for _, spec := range All() {
		if spec.Name == "trace" {
			continue // needs a file; covered by the dodascen CLI tests
		}
		t.Run(spec.Name, func(t *testing.T) {
			const n = 12
			w, err := spec.Build(n, 9, nil)
			if err != nil {
				t.Fatal(err)
			}
			if w.N != n {
				t.Fatalf("workload n = %d, want %d", w.N, n)
			}
			res, err := core.RunOnce(core.Config{N: w.N, MaxInteractions: 400 * n * n, VerifyAggregate: true},
				algorithms.NewGathering(), w.Adversary)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Terminated {
				t.Fatalf("gathering did not terminate: %+v", res)
			}
			if res.Transmissions != n-1 {
				t.Errorf("transmissions = %d, want %d", res.Transmissions, n-1)
			}
		})
	}
}

func TestRegistryLookup(t *testing.T) {
	if len(All()) < 4 {
		t.Fatalf("only %d registered scenarios, want >= 4", len(All()))
	}
	if _, ok := Lookup("edge-markovian"); !ok {
		t.Error("edge-markovian not registered")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("lookup of unknown scenario succeeded")
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("names not sorted: %v", names)
		}
	}
}

func TestRegistryRejectsUnknownAndBadParams(t *testing.T) {
	spec, ok := Lookup("edge-markovian")
	if !ok {
		t.Fatal("edge-markovian not registered")
	}
	if _, err := spec.Build(8, 1, map[string]string{"bogus": "1"}); err == nil {
		t.Error("want error for unknown parameter")
	}
	if _, err := spec.Build(8, 1, map[string]string{"p-up": "zzz"}); err == nil {
		t.Error("want error for non-numeric parameter")
	}
	if _, err := spec.Build(8, 1, map[string]string{"p-up": "2"}); err == nil {
		t.Error("want error for out-of-range probability")
	}
	churn, ok := Lookup("churn")
	if !ok {
		t.Fatal("churn not registered")
	}
	if _, err := churn.Build(8, 1, map[string]string{"inner": "nope"}); err == nil {
		t.Error("want error for unknown inner model")
	}
	tr, ok := Lookup("trace")
	if !ok {
		t.Fatal("trace not registered")
	}
	if _, err := tr.Build(8, 1, nil); err == nil {
		t.Error("want error for missing trace file")
	}
}

func TestRegistryDeterministicAcrossBuilds(t *testing.T) {
	// The registry path must be as reproducible as the raw models: the
	// acceptance criterion "identical seeds reproduce identical
	// sequences" checked end to end.
	spec, ok := Lookup("edge-markovian")
	if !ok {
		t.Fatal("edge-markovian not registered")
	}
	runOnce := func() core.Result {
		w, err := spec.Build(16, 42, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.RunOnce(core.Config{N: w.N, MaxInteractions: 1 << 18},
			algorithms.NewGathering(), w.Adversary)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runOnce(), runOnce()
	// Compare scalar outcome fields (SinkValue holds a provenance
	// pointer, which never compares equal across runs).
	if a.Terminated != b.Terminated || a.Duration != b.Duration ||
		a.Interactions != b.Interactions || a.Transmissions != b.Transmissions ||
		a.Declined != b.Declined || a.LastGap != b.LastGap ||
		a.SinkValue.Num != b.SinkValue.Num || a.SinkValue.Count != b.SinkValue.Count {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

func TestBernoulliIndicesTinyProbability(t *testing.T) {
	// A sub-denormal flip probability must not overflow the geometric
	// skip into a negative index (it used to panic downstream).
	src := rng.New(1)
	for i := 0; i < 100; i++ {
		if got := bernoulliIndices(src, 1<<20, 1e-300, nil); len(got) != 0 {
			for _, idx := range got {
				if idx < 0 || idx >= 1<<20 {
					t.Fatalf("index %d out of range", idx)
				}
			}
		}
	}
}

func TestReplayTraceRejectsGappyIDs(t *testing.T) {
	// 1-based trace: node 0 (the conventional sink) never appears.
	if _, err := ReplayTrace(strings.NewReader("1,1,2\n2,2,3\n")); err == nil {
		t.Error("want error for non-contiguous node ids")
	}
	// Gap in the middle: node 1 missing.
	if _, err := ReplayTrace(strings.NewReader("1,0,2\n")); err == nil {
		t.Error("want error for missing intermediate id")
	}
}

func TestParseParams(t *testing.T) {
	got, err := ParseParams(" p-up = 0.1 ,p-down=0.3")
	if err != nil {
		t.Fatal(err)
	}
	if got["p-up"] != "0.1" || got["p-down"] != "0.3" {
		t.Errorf("params = %v", got)
	}
	for _, bad := range []string{"novalue", "k=", "=v", ","} {
		if _, err := ParseParams(bad); err == nil {
			t.Errorf("ParseParams(%q): want error", bad)
		}
	}
	if got, err := ParseParams(""); err != nil || len(got) != 0 {
		t.Errorf("empty input: %v, %v", got, err)
	}
}

func TestExtremeProbabilitiesStayResponsive(t *testing.T) {
	// Near-zero birth/recovery probabilities must not stall the
	// generators: the fast-forward paths sample the next birth/recovery
	// directly instead of spinning through astronomically many ticks.
	em, err := NewEdgeMarkovian(8, 1e-18, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Stream(em, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if it := st.At(i); int(it.V) >= 8 {
			t.Fatalf("invalid interaction %v", it)
		}
	}
	inner, err := NewUniform(8)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChurn(inner, 1, 1e-18)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := Stream(ch, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if it := st2.At(i); int(it.V) >= 8 {
			t.Fatalf("invalid interaction %v", it)
		}
	}
}

func TestNaNProbabilitiesRejected(t *testing.T) {
	nan := math.NaN()
	if _, err := NewEdgeMarkovian(8, nan, 0.2); err == nil {
		t.Error("edge-markovian accepted NaN birth probability")
	}
	if _, err := NewEdgeMarkovian(8, 0.2, nan); err == nil {
		t.Error("edge-markovian accepted NaN death probability")
	}
	if _, err := NewCommunity([]int{4, 4}, nan); err == nil {
		t.Error("community accepted NaN intra probability")
	}
	inner, err := NewUniform(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewChurn(inner, nan, 0.2); err == nil {
		t.Error("churn accepted NaN failure probability")
	}
	if _, err := NewChurn(inner, 0.2, nan); err == nil {
		t.Error("churn accepted NaN recovery probability")
	}
	// End to end: the CLI parameter path accepts the literal "NaN".
	spec, ok := Lookup("edge-markovian")
	if !ok {
		t.Fatal("edge-markovian not registered")
	}
	if _, err := spec.Build(8, 1, map[string]string{"p-up": "NaN"}); err == nil {
		t.Error("registry accepted p-up=NaN")
	}
}
