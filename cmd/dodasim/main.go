// Command dodasim runs a single distributed online data aggregation
// execution and prints the outcome.
//
// Usage:
//
//	dodasim -n 64 -alg gathering -adversary random -seed 7
//	dodasim -n 64 -alg waiting-greedy -tau auto
//	dodasim -n 3 -alg gathering -adversary theorem1 -max 1000
//	dodasim -n 64 -alg gathering -trace run.jsonl
//	dodasim -n 64 -alg gathering -scenario edge-markovian -params p-up=0.1
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"doda"
	"doda/internal/offline"
	"doda/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dodasim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dodasim", flag.ContinueOnError)
	var (
		n         = fs.Int("n", 32, "number of nodes (sink is node 0)")
		algName   = fs.String("alg", "gathering", "algorithm: waiting | gathering | waiting-greedy | full-knowledge | future-optimal")
		advName   = fs.String("adversary", "random", "adversary: random | theorem1 | theorem3")
		scenName  = fs.String("scenario", "", "generate the workload from a registered scenario instead of -adversary (see `dodascen list`)")
		scenParam = fs.String("params", "", "comma-separated scenario parameters, e.g. p-up=0.1,p-down=0.3")
		seed      = fs.Uint64("seed", 1, "random seed")
		tauFlag   = fs.String("tau", "auto", "waiting-greedy threshold: integer or 'auto' (= n^1.5·sqrt(ln n))")
		max       = fs.Int("max", 0, "interaction cap (0 = a generous default)")
		tracePath = fs.String("trace", "", "write a JSON-lines trace to this file")
		conc      = fs.Bool("concurrent", false, "use the goroutine-per-node runtime instead of the sequential engine")
		withCost  = fs.Bool("cost", true, "compute cost_A(I) via the successive-convergecast clock (sequence-backed adversaries and scenarios)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	advSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "adversary" {
			advSet = true
		}
	})
	if *scenName == "" && *scenParam != "" {
		return fmt.Errorf("-params requires -scenario")
	}
	if *scenName != "" && advSet {
		return fmt.Errorf("-scenario and -adversary are mutually exclusive")
	}

	var (
		adv    doda.Adversary
		stream *doda.Stream
		view   doda.SequenceView
		know   *doda.Knowledge
		err    error
	)
	switch {
	case *scenName != "":
		spec, ok := scenario.Lookup(*scenName)
		if !ok {
			return fmt.Errorf("unknown scenario %q (known: %s)", *scenName, strings.Join(scenario.Names(), ", "))
		}
		params, err := scenario.ParseParams(*scenParam)
		if err != nil {
			return err
		}
		w, err := spec.Build(*n, *seed, params)
		if err != nil {
			return err
		}
		adv, view = w.Adversary, w.View
		*n = w.N // trace replay dictates its own node count
		stream, _ = w.View.(*doda.Stream)
	case *advName == "random":
		adv, stream, err = doda.RandomizedAdversary(*n, *seed)
		if err != nil {
			return err
		}
		view = stream
	case *advName == "theorem1":
		if *n != 3 {
			return fmt.Errorf("theorem1 adversary needs -n 3")
		}
		adv, err = doda.Theorem1Adversary(0)
		if err != nil {
			return err
		}
	case *advName == "theorem3":
		if *n != 4 {
			return fmt.Errorf("theorem3 adversary needs -n 4")
		}
		var g *doda.Graph
		adv, g, err = doda.Theorem3Adversary(0)
		if err != nil {
			return err
		}
		know, err = doda.NewKnowledge(doda.WithUnderlying(g))
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown adversary %q", *advName)
	}

	cap := *max
	if cap == 0 {
		cap = 60**n**n + 10000
		if *scenName != "" {
			cap = scenario.DefaultCap(*n)
		}
	}
	if view != nil {
		if b, finite := view.Bound(); finite && cap > b {
			cap = b
		}
	}

	var alg doda.Algorithm
	switch *algName {
	case "waiting":
		alg = doda.NewWaiting()
	case "gathering":
		alg = doda.NewGathering()
	case "waiting-greedy":
		tau := doda.TauStar(*n)
		if *tauFlag != "auto" {
			tau, err = strconv.Atoi(*tauFlag)
			if err != nil {
				return fmt.Errorf("bad -tau: %w", err)
			}
		}
		if view == nil {
			return fmt.Errorf("waiting-greedy needs a sequence-backed adversary (meetTime oracle)")
		}
		know, err = doda.NewKnowledge(doda.WithMeetTime(view, 0, cap))
		if err != nil {
			return err
		}
		alg = doda.NewWaitingGreedy(tau)
		fmt.Printf("τ = %d\n", tau)
	case "full-knowledge":
		if view == nil {
			return fmt.Errorf("full-knowledge needs a sequence-backed adversary")
		}
		know, err = doda.NewKnowledge(doda.WithFullSequence(view))
		if err != nil {
			return err
		}
		alg = doda.NewFullKnowledge(cap)
	case "future-optimal":
		var prefix *doda.Sequence
		switch {
		case stream != nil:
			prefix = stream.Prefix(cap)
		default:
			s, ok := view.(*doda.Sequence)
			if !ok {
				return fmt.Errorf("future-optimal needs a sequence-backed adversary")
			}
			prefix = s
		}
		know, err = doda.NewKnowledge(doda.WithFutures(prefix))
		if err != nil {
			return err
		}
		adv, err = doda.ObliviousAdversary(adv.Name()+"-prefix", prefix)
		if err != nil {
			return err
		}
		alg = doda.NewFutureOptimal(cap)
	default:
		return fmt.Errorf("unknown algorithm %q", *algName)
	}

	var rec *doda.TraceRecorder
	if *tracePath != "" {
		rec = doda.NewTraceRecorder()
	}

	var res doda.Result
	if *conc {
		rcfg := doda.RuntimeConfig{N: *n, MaxInteractions: cap, Know: know}
		if rec != nil {
			rcfg.Events = rec
		}
		rt, err := doda.NewRuntime(rcfg)
		if err != nil {
			return err
		}
		res, err = rt.Run(alg, adv)
		rt.Close()
		if err != nil {
			return err
		}
	} else {
		cfg := doda.Config{N: *n, MaxInteractions: cap, Know: know, VerifyAggregate: true}
		if rec != nil {
			cfg.Events = rec
		}
		res, err = doda.Run(cfg, alg, adv)
		if err != nil {
			return err
		}
	}

	fmt.Printf("algorithm:     %s\n", res.Algorithm)
	fmt.Printf("adversary:     %s\n", res.Adversary)
	fmt.Printf("terminated:    %v\n", res.Terminated)
	if res.Failed {
		fmt.Printf("failed:        %s\n", res.FailReason)
	}
	fmt.Printf("interactions:  %d\n", res.Interactions)
	fmt.Printf("duration:      %d\n", res.Duration)
	fmt.Printf("transmissions: %d\n", res.Transmissions)
	fmt.Printf("declined:      %d\n", res.Declined)
	fmt.Printf("last gap:      %d\n", res.LastGap)
	if res.Terminated {
		fmt.Printf("sink value:    %.4g (from %d data)\n", res.SinkValue.Num, res.SinkValue.Count)
	}

	if *withCost && view != nil && res.Terminated {
		clock, err := doda.NewClock(view, 0, res.Duration+60**n**n)
		if err != nil {
			return err
		}
		if cost, ok := clock.Cost(res.Duration); ok {
			fmt.Printf("cost:          %d successive convergecasts\n", cost)
		}
	}
	if view != nil && res.Terminated {
		if opt, ok := offline.Opt(view, 0, 0, res.Duration+60**n**n); ok {
			fmt.Printf("offline opt:   %d (ratio %.2f)\n", opt, float64(res.Duration)/float64(opt))
		}
	}

	if rec != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.Write(f); err != nil {
			return err
		}
		fmt.Printf("trace:         %s (%d records)\n", *tracePath, len(rec.Records))
	}
	return nil
}
