// Reduce example: SAT sweeping as a logic optimizer ("fraiging"). Proven
// node equivalences are materialized into a smaller network, and the
// reduction is re-verified with an independent equivalence check.
package main

import (
	"fmt"
	"log"

	"simgen"
)

func main() {
	for _, name := range []string{"apex2", "spla", "alu4", "e64"} {
		net, err := simgen.LoadBenchmark(name)
		if err != nil {
			log.Fatal(err)
		}

		// Simulation narrows the candidates (up to 20 guided iterations,
		// fewer once the cost stops moving), sweeping proves them.
		run := simgen.NewRunner(net, 1, 42)
		gen := simgen.NewGenerator(net, simgen.StrategySimGen, 1)
		run.Run(gen, 20)
		sw := simgen.NewSweeper(net, run.Classes, simgen.SweepOptions{})
		res := sw.Run()

		// Redirect merged nodes to their representatives; drop dead logic.
		reduced := simgen.ApplySweep(net, sw.Rep)

		// Trust but verify: the reduced circuit must be equivalent.
		cec, err := simgen.CEC(net, reduced, simgen.CECOptions{Seed: 3})
		if err != nil {
			log.Fatal(err)
		}
		verdict := "EQUIVALENT"
		if !cec.Equivalent {
			verdict = "BROKEN (this is a bug)"
		}
		fmt.Printf("%-8s %4d LUTs -> %4d LUTs  (%2d equivalences proven, %s)\n",
			name, net.NumLUTs(), reduced.NumLUTs(), res.Proved, verdict)
	}
}
