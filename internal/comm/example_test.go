package comm_test

import (
	"fmt"
	"sort"
	"sync"

	"plum/internal/comm"
)

// Example runs a 4-rank SPMD program: everyone contributes its rank to a
// gather, and rank 0 reports the total.
func Example() {
	w := comm.NewWorld(4)
	var mu sync.Mutex
	var lines []string
	w.Run(func(c *comm.Comm) {
		parts := c.Gather(0, []int64{int64(c.Rank())})
		if c.Rank() == 0 {
			var sum int64
			for _, part := range parts {
				sum += part[0]
			}
			mu.Lock()
			lines = append(lines, fmt.Sprintf("sum of ranks = %d", sum))
			mu.Unlock()
		}
	})
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	// Output:
	// sum of ranks = 6
}
