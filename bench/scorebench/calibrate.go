package main

import (
	"runtime"
	"time"
)

// The sandbox this benchmark was sized on does not hold its speed: over
// minutes, identical memory-bound work (and a simulator is maps, channel
// hand-offs and garbage) runs up to 1.5x slower or faster, wall and CPU
// time together, while a register-only spin loop stays within 3 %. Raw
// host times of one commit then spread by 20–50 % from run to run, more
// than any bound could gate. So every run interleaves its shots with a
// fixed calibration kernel and reports host times divided by how much
// slower than reference the kernel ran: the drift cancels, a change in
// the measured code does not.
//
// The kernel is pure Go and owes nothing to the repository's code. It
// has two halves, because neither alone tracks the simulator: a token
// ring of goroutines that each keep a small map and a few live
// allocations (scheduler hand-offs, cache-resident maps, allocation),
// and a dependent pointer chase through 16 MiB (memory latency). The
// ring counts for two thirds: over two drifting half-hours that weight
// left the least spread in every workload's corrected wall time but
// one's (bench/README.md has the numbers).
const (
	ringWorkers, ringHandoffs = 512, 12000
	chaseLen, chaseSteps      = 4 << 20, 150000

	// Reference times of the two halves: the sandbox (2 cores,
	// GOMAXPROCS 2) at its quietest.
	ringRefSeconds  = 0.031
	chaseRefSeconds = 0.0165
	ringWeight      = 2.0 / 3
)

// chase is a full-period linear congruential map over [0, 2^22): one
// cycle that visits every slot in a scattered order. Built by the first
// calibration.
var chase []int32

var calSink int

func ringHalf() time.Duration {
	t0 := time.Now()
	token := make([]chan int, ringWorkers)
	for i := range token {
		token[i] = make(chan int)
	}
	done := make(chan int)
	for w := range token {
		w := w
		go func() {
			m := map[int64]int64{}
			var keep [16][]byte
			sum := 0
			for n := range token[w] {
				for k := 0; k < 24; k++ {
					key := int64((n*31 + k*7) % 257)
					m[key] += int64(k)
					sum += int(m[(key*3)%257])
				}
				keep[n%16] = make([]byte, 64+n%192)
				if n+1 == ringHandoffs {
					done <- sum + len(keep[0])
					continue
				}
				token[(w+1)%ringWorkers] <- n + 1
			}
		}()
	}
	token[0] <- 0
	calSink += <-done
	for _, c := range token {
		close(c)
	}
	return time.Since(t0)
}

func chaseHalf() time.Duration {
	if chase == nil {
		chase = make([]int32, chaseLen)
		for i := range chase {
			chase[i] = int32((i*1664525 + 1013904223) & (chaseLen - 1))
		}
	}
	t0 := time.Now()
	x := int32(calSink & (chaseLen - 1))
	for i := 0; i < chaseSteps; i++ {
		x = chase[x]
	}
	calSink += int(x)
	return time.Since(t0)
}

// calibrate returns how many times slower than reference the host runs
// the kernel right now.
func calibrate() float64 {
	runtime.GC() // the ring's garbage is the kernel's own business
	ring, chase := ringHalf().Seconds()/ringRefSeconds, chaseHalf().Seconds()/chaseRefSeconds
	return ringWeight*ring + (1-ringWeight)*chase
}
