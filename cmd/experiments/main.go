// Command experiments regenerates the tables and figures of the SimGen
// paper's evaluation.
//
// Exit codes: 0 success, 1 an experiment failed, 2 usage error (an unknown
// experiment or benchmark name, or a negative iteration count), reported
// before any experiment runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"simgen/internal/experiments"
	"simgen/internal/load"
)

// names lists the experiments run knows, in usage order.
var names = []string{"table1", "table2", "table2big", "fig5", "fig6", "fig7", "ablation", "attribution", "all"}

func main() {
	var (
		benchList  = flag.String("benchmarks", "", "comma-separated benchmarks every experiment is restricted to (default: all 42; table2big and fig6 run the scaled circuits built from listed ones, fig7 traces the listed ones instead of apex2 and cps)")
		iterations = flag.Int("iterations", 20, "guided simulation iterations")
		seed       = flag.Int64("seed", 20250706, "random seed")
		fig7Iters  = flag.Int("fig7-iterations", 100, "iterations for figure 7 trajectories")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintf(os.Stderr, "usage: experiments [flags] {%s}\n", strings.Join(names, "|"))
		os.Exit(2)
	}

	cfg := experiments.DefaultConfig()
	cfg.GuidedIterations = *iterations
	cfg.Seed = *seed
	if *benchList != "" {
		cfg.Benchmarks = strings.Split(*benchList, ",")
	}
	if err := check(flag.Args(), cfg, *fig7Iters); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	for _, cmd := range flag.Args() {
		if err := run(cmd, cfg, *fig7Iters); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
}

// check rejects what would otherwise fail, or quietly run nothing, partway
// through a run: an unknown experiment or benchmark name, a -benchmarks
// list that leaves table2big or fig6 (alone or through all) no scaled
// circuit, and a negative iteration count.
func check(cmds []string, cfg experiments.Config, fig7Iters int) error {
	for _, cmd := range cmds {
		if !slices.Contains(names, cmd) {
			return fmt.Errorf("unknown experiment %q (want %s)", cmd, strings.Join(names, "|"))
		}
	}
	for _, name := range cfg.Benchmarks {
		if _, err := load.Lookup(name); err != nil {
			return err
		}
	}
	for _, cmd := range cmds {
		if (cmd == "table2big" || cmd == "fig6" || cmd == "all") && len(scaledSet(cfg)) == 0 {
			var base []string
			for _, sb := range experiments.ScaledSet {
				base = append(base, sb.Name)
			}
			return fmt.Errorf("%s: -benchmarks names no scaled circuit (want one of %s)", cmd, strings.Join(base, ","))
		}
	}
	if cfg.GuidedIterations < 0 {
		return fmt.Errorf("-iterations must be >= 0, got %d", cfg.GuidedIterations)
	}
	if fig7Iters < 0 {
		return fmt.Errorf("-fig7-iterations must be >= 0, got %d", fig7Iters)
	}
	return nil
}

// scaledSet returns the ScaledSet entries whose base circuit -benchmarks
// lists, or all of them without a list.
func scaledSet(cfg experiments.Config) []experiments.ScaledBenchmark {
	if cfg.Benchmarks == nil {
		return experiments.ScaledSet
	}
	set := []experiments.ScaledBenchmark{}
	for _, sb := range experiments.ScaledSet {
		if slices.Contains(cfg.Benchmarks, sb.Name) {
			set = append(set, sb)
		}
	}
	return set
}

// fig7Set returns the circuits Figure 7 traces: the -benchmarks list, or
// the paper's apex2 and cps without one.
func fig7Set(cfg experiments.Config) []string {
	if cfg.Benchmarks != nil {
		return cfg.Benchmarks
	}
	return []string{"apex2", "cps"}
}

func run(cmd string, cfg experiments.Config, fig7Iters int) error {
	switch cmd {
	case "table1":
		res, err := experiments.Table1(cfg)
		if err != nil {
			return err
		}
		fmt.Println("== Table 1: normalized average cost and simulation runtime ==")
		fmt.Print(res.Format())
	case "table2":
		rows, err := experiments.Table2(cfg)
		if err != nil {
			return err
		}
		fmt.Println("== Table 2 (upper): SAT calls and SAT time ==")
		fmt.Print(experiments.FormatTable2(rows))
	case "table2big":
		rows, err := experiments.Table2Scaled(cfg, scaledSet(cfg))
		if err != nil {
			return err
		}
		fmt.Println("== Table 2 (lower): scaled benchmarks via putontop ==")
		fmt.Print(experiments.FormatTable2(rows))
	case "fig5":
		rows, err := experiments.Table2(cfg)
		if err != nil {
			return err
		}
		fmt.Println("== Figure 5: normalized differences, SimGen vs RevS ==")
		fmt.Print(experiments.FormatFigure(experiments.FigureRows(rows)))
	case "fig6":
		rows, err := experiments.Table2Scaled(cfg, scaledSet(cfg))
		if err != nil {
			return err
		}
		fmt.Println("== Figure 6: normalized differences on scaled benchmarks ==")
		fmt.Print(experiments.FormatFigure(experiments.FigureRows(rows)))
	case "attribution":
		rows, err := experiments.Attribution(cfg)
		if err != nil {
			return err
		}
		fmt.Println("== Engine attribution: portfolio sweep per-engine breakdown ==")
		fmt.Print(experiments.FormatAttribution(rows))
	case "ablation":
		res, err := experiments.Ablation(cfg)
		if err != nil {
			return err
		}
		fmt.Println("== Extension ablation: vector sources (normalized cost) ==")
		fmt.Print(res.Format())
	case "fig7":
		for _, bench := range fig7Set(cfg) {
			trs, err := experiments.Figure7(bench, fig7Iters, 3, cfg)
			if err != nil {
				return err
			}
			fmt.Printf("== Figure 7: %s ==\n", bench)
			fmt.Print(experiments.FormatFigure7(bench, trs))
		}
	case "all":
		for _, c := range []string{"table1", "table2", "fig5", "table2big", "fig6", "fig7"} {
			if err := run(c, cfg, fig7Iters); err != nil {
				return err
			}
			fmt.Println()
		}
	default:
		return fmt.Errorf("unknown experiment %q", cmd)
	}
	return nil
}
