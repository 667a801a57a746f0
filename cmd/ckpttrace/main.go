// Command ckpttrace runs a small Score adjoint shot with runtime tracing
// enabled and writes the timeline in the Chrome trace-event format. Load
// the output in chrome://tracing or https://ui.perfetto.dev to see the
// application's checkpoint/restore blocking interleaved with the
// asynchronous flusher and prefetcher activity of every GPU.
//
// Usage:
//
//	ckpttrace -o trace.json -gpus 2 -versions 24
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"score"
	"score/internal/trace"
)

func main() {
	out := flag.String("o", "trace.json", "output file (Chrome trace-event JSON)")
	gpus := flag.Int("gpus", 2, "GPUs (processes) on the simulated node")
	versions := flag.Int("versions", 24, "checkpoints per process")
	size := flag.Int64("size", 64<<20, "checkpoint size in bytes")
	interval := flag.Duration("interval", 10*time.Millisecond, "compute time between operations")
	sample := flag.Duration("sample", 100*time.Microsecond, "cache/engine gauge sampling interval for counter tracks (0 disables)")
	ledger := flag.Int64("ledger", -1, "print the lifecycle ledger (flight-recorder events) of this checkpoint version per GPU after the run (-1 disables)")
	flag.Parse()

	opts := []score.Option{
		score.WithTracing(),
		score.WithGPUsPerNode(*gpus),
	}
	if *sample > 0 {
		opts = append(opts, score.WithSampling(*sample))
	}
	sim, err := score.NewSim(opts...)
	if err != nil {
		fatal(err)
	}
	sim.Run(func() {
		wg := sim.NewWaitGroup()
		errs := make([]error, *gpus)
		for g := 0; g < *gpus; g++ {
			g := g
			wg.Add(1)
			sim.Clock().Go(func() {
				defer wg.Done()
				errs[g] = runShot(sim, g, *versions, *size, *interval)
			})
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				fatal(fmt.Errorf("gpu %d: %w", g, err))
			}
		}
	})

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := sim.WriteTrace(f); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d GPUs × %d checkpoints, %v simulated)\n",
		*out, *gpus, *versions, sim.Clock().Now().Round(time.Millisecond))
	fmt.Println("open it in chrome://tracing or https://ui.perfetto.dev")

	tracer := sim.Tracer()
	if *ledger >= 0 {
		printLedger(tracer.Flight(), *ledger)
	}
	if ev, cnt := tracer.Dropped(); ev > 0 || cnt > 0 {
		fmt.Printf("warning: trace incomplete — %d spans dropped at the retention cap, %d sampler counter samples outside its counter window\n", ev, cnt)
	}
	if fl := tracer.Flight(); fl.TotalDropped() > 0 {
		fmt.Printf("warning: lifecycle ledger incomplete — %d events dropped (per rank:", fl.TotalDropped())
		for _, r := range fl.Ranks() {
			if d := fl.Dropped(r); d > 0 {
				fmt.Printf(" rank%d=%d", r, d)
			}
		}
		fmt.Println(")")
	}
}

// printLedger dumps one checkpoint version's causal lifecycle chain per
// rank: every recorded transition from created to restored/lost, with
// the cluster-wide events (rank -1: group commits, degradations, kills)
// first when present.
func printLedger(fl *trace.FlightRecorder, version int64) {
	for _, rank := range fl.Ranks() {
		events := fl.VersionLedger(rank, version)
		if len(events) == 0 {
			continue
		}
		who := fmt.Sprintf("gpu %d", rank)
		if rank < 0 {
			who = "cluster"
		}
		fmt.Printf("\nlifecycle of version %d (%s):\n", version, who)
		for _, ev := range events {
			line := fmt.Sprintf("  %12v  %s", ev.At.Round(time.Microsecond), ev.Kind)
			if ev.Tier != "" {
				line += " [" + ev.Tier + "]"
			}
			if ev.Detail != "" {
				line += " " + ev.Detail
			}
			fmt.Println(line)
		}
	}
}

// runShot is the Listing 1 pattern for one process.
func runShot(sim *score.Sim, gpu, versions int, size int64, interval time.Duration) error {
	c, err := sim.NewClient(0, gpu,
		score.WithGPUCache(size*4),
		score.WithHostCache(size*16),
	)
	if err != nil {
		return err
	}
	defer c.Close()
	for v := versions - 1; v >= 0; v-- {
		c.PrefetchEnqueue(int64(v))
	}
	for v := 0; v < versions; v++ {
		if err := c.CheckpointVirtual(int64(v), size); err != nil {
			return err
		}
		c.Compute(interval)
	}
	if err := c.WaitFlush(); err != nil {
		return err
	}
	c.PrefetchStart()
	for v := versions - 1; v >= 0; v-- {
		if _, err := c.Restart(int64(v)); err != nil {
			return err
		}
		c.Compute(interval)
	}
	return c.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ckpttrace:", err)
	os.Exit(1)
}
