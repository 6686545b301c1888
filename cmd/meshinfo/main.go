// Command meshinfo generates a mesh and prints its statistics: object
// counts, an edge aspect-ratio histogram of the elements, dual-graph
// structure, and — for a given processor count — the shared-object
// overhead of the paper's initialization phase.
//
//	go run ./cmd/meshinfo                 # paper-scale rotor mesh
//	go run ./cmd/meshinfo -box 8          # 8×8×8 unit box
//	go run ./cmd/meshinfo -p 16           # include distribution stats
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"plum/internal/dual"
	"plum/internal/geom"
	"plum/internal/mesh"
	"plum/internal/meshgen"
	"plum/internal/par"
	"plum/internal/partition"
)

func main() {
	log.SetFlags(0)
	var (
		box = flag.Int("box", 0, "generate an n×n×n unit box instead of the rotor mesh")
		p   = flag.Int("p", 0, "processors for distribution statistics (0 = skip)")
	)
	flag.Parse()
	switch {
	case *box < 0:
		badFlag("invalid -box %d: need ≥ 0", *box)
	case *p < 0:
		badFlag("invalid -p %d: need ≥ 0", *p)
	}

	var m *mesh.Mesh
	if *box > 0 {
		m = meshgen.Box(*box, *box, *box, geom.Vec3{X: 1, Y: 1, Z: 1})
		fmt.Printf("mesh: %dx%dx%d unit box\n", *box, *box, *box)
	} else {
		m = meshgen.PaperMesh()
		fmt.Println("mesh: paper-scale rotor disk (UH-1H stand-in)")
	}
	fmt.Printf("  %s\n", m.Stats())
	fmt.Printf("  total volume: %.6g\n", m.TotalVolume())

	// Aspect-ratio histogram (longest/shortest edge ratio).
	var buckets [6]int
	lims := []float64{1.5, 2, 3, 5, 10}
	for i := range m.Elems {
		if !m.Elems[i].Active() {
			continue
		}
		t := m.Tet(mesh.ElemID(i))
		ar := geom.TetAspectRatio(
			m.Vert(t.V[0]).Pos, m.Vert(t.V[1]).Pos,
			m.Vert(t.V[2]).Pos, m.Vert(t.V[3]).Pos)
		k := len(lims)
		for j, l := range lims {
			if ar <= l {
				k = j
				break
			}
		}
		buckets[k]++
	}
	fmt.Println("  aspect-ratio histogram:")
	labels := []string{"≤1.5", "≤2", "≤3", "≤5", "≤10", ">10"}
	for i, n := range buckets {
		fmt.Printf("    %-5s %d\n", labels[i], n)
	}

	g := dual.Build(m)
	fmt.Printf("dual graph: %d vertices, %d edges, ΣWcomp=%d ΣWremap=%d\n",
		g.N, g.NumEdges(), g.TotalWcomp(), g.TotalWremap())

	if *p > 1 {
		asg := partition.Partition(g, *p, partition.MethodMultilevel)
		d := par.NewDist(m, *p, asg)
		st := d.Init()
		fmt.Printf("distribution over P=%d:\n", *p)
		fmt.Printf("  imbalance Wmax/Wavg: %.4f\n", partition.Imbalance(g, asg, *p))
		fmt.Printf("  edge cut: %d\n", partition.EdgeCut(g, asg))
		fmt.Printf("  shared edges: %d, shared vertices: %d (%.1f%% of objects)\n",
			st.SharedEdges, st.SharedVerts, 100*st.SharedFraction)
	}

	if err := m.Check(); err != nil {
		log.Fatalf("mesh invariant violated: %v", err)
	}
	fmt.Println("mesh invariants: OK")
}

// badFlag rejects a flag value the way the flag package rejects a
// malformed one: a message on stderr and exit status 2.
func badFlag(format string, args ...any) {
	log.Printf(format, args...)
	os.Exit(2)
}
