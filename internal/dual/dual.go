// Package dual implements the dual-graph representation at the heart of
// the paper's load-balancing framework: the tetrahedral elements of the
// *initial* computational mesh are the vertices of the dual graph, and an
// edge exists between two dual vertices when the corresponding elements
// share a face.
//
// The key property (and the paper's central argument) is that the dual
// graph's complexity and connectivity remain constant during the course of
// an adaptive computation: new grids obtained by adaption are translated
// into two weights per dual vertex —
//
//	Wcomp:  the number of leaf elements in the refinement tree (only
//	        leaves participate in the flow computation);
//	Wremap: the total number of elements in the refinement tree (all
//	        descendants move with the root when it is reassigned).
//
// Partitioning and load-balancing times therefore depend only on the
// initial problem size, not on the adapted mesh.
//
// The adjacency is stored in compressed sparse row (CSR) form: vertex v's
// neighbours are Adjncy[Xadj[v]:Xadj[v+1]], read through Nbrs. The
// multilevel partitioner's coarse levels are Graphs of the same form that
// carry only the adjacency and Wcomp.
package dual

import (
	"fmt"
	"slices"

	"plum/internal/geom"
	"plum/internal/mesh"
)

// Graph is the weighted dual graph of an initial tetrahedral mesh.
type Graph struct {
	// N is the number of dual vertices (= initial mesh elements).
	N int
	// Xadj and Adjncy hold the adjacency in CSR form: the neighbours of
	// vertex v, the dual vertices whose elements share a face with it
	// (≤ 4 entries on a mesh dual), are Adjncy[Xadj[v]:Xadj[v+1]].
	// len(Xadj) == N+1, Xadj[0] == 0 and Xadj[N] == len(Adjncy).
	Xadj   []int32
	Adjncy []int32
	// Wcomp is the computational weight of each dual vertex.
	Wcomp []int64
	// Wremap is the data-redistribution weight of each dual vertex.
	Wremap []int64
	// EdgeWeight is the uniform runtime-communication weight attached to
	// every dual edge (the paper uses uniform edge weights for its test
	// cases).
	EdgeWeight int64
	// Centroid caches each root element's centroid for geometric
	// (space-filling-curve) partitioning.
	Centroid []geom.Vec3
}

// Build constructs the dual graph of m's initial (level-0) elements: dual
// vertex i is root element i, one of the prefix [0, m.NumRoots()) the mesh
// keeps for its whole life, so the graph is identical before and after
// adaption. Weights are initialized from the current refinement forest
// (Wcomp = Wremap = 1 on an unadapted mesh).
//
// Faces are matched without hashing: the 4n root faces are
// counting-sorted by their smallest vertex, and within a bucket (a few
// faces per vertex) a face pairs with the earlier unmatched face on the
// same other two vertices. The pairs are then replayed in (element, face)
// order, so every row lists its neighbours in the order the faces are
// met, and the rows are written into one CSR array.
func Build(m *mesh.Mesh) *Graph {
	n := m.NumRoots()
	g := &Graph{
		N:          n,
		Xadj:       make([]int32, n+1),
		Wcomp:      make([]int64, n),
		Wremap:     make([]int64, n),
		EdgeWeight: 1,
		Centroid:   make([]geom.Vec3, n),
	}

	// Face 4i+f is local face f of root i, as a sorted vertex triple.
	keys := make([][3]mesh.VertID, 4*n)
	for i := range n {
		t := &m.Elems[i]
		g.Centroid[i] = m.ElemCentroid(mesh.ElemID(i))
		for f, fv := range mesh.ElemFaceVerts {
			a, b, c := t.V[fv[0]], t.V[fv[1]], t.V[fv[2]]
			if a > b {
				a, b = b, a
			}
			if b > c {
				b, c = c, b
			}
			if a > b {
				a, b = b, a
			}
			keys[4*i+f] = [3]mesh.VertID{a, b, c}
		}
	}
	// Stable counting sort of the faces by smallest vertex.
	start := make([]int32, m.VertSlots()+1)
	for _, k := range keys {
		start[k[0]+1]++
	}
	for v := 1; v < len(start); v++ {
		start[v] += start[v-1]
	}
	byVert := make([]int32, len(keys))
	fill := append([]int32(nil), start[:m.VertSlots()]...)
	for q, k := range keys {
		byVert[fill[k[0]]] = int32(q)
		fill[k[0]]++
	}
	// earlier[q] is the face q closes, set on the later face of each pair
	// only; -2 marks a face already paired from its own side.
	earlier := make([]int32, len(keys))
	for i := range earlier {
		earlier[i] = -1
	}
	// Xadj[i+1] counts row i's degree, then becomes its end offset.
	for v := 0; v < m.VertSlots(); v++ {
		bucket := byVert[start[v]:start[v+1]]
		for x, q := range bucket {
			for _, p := range bucket[:x] {
				if earlier[p] == -1 && keys[p] == keys[q] {
					earlier[q], earlier[p] = p, -2
					g.Xadj[q/4+1]++
					g.Xadj[p/4+1]++
					break
				}
			}
		}
	}
	for i := 1; i <= n; i++ {
		g.Xadj[i] += g.Xadj[i-1]
	}
	g.Adjncy = make([]int32, g.Xadj[n])
	next := append([]int32(nil), g.Xadj[:n]...) // each row's write cursor
	for q, p := range earlier {
		if p >= 0 {
			i, j := int32(q/4), p/4
			g.Adjncy[next[i]] = j
			next[i]++
			g.Adjncy[next[j]] = i
			next[j]++
		}
	}
	g.UpdateWeights(m)
	return g
}

// UpdateWeights recomputes Wcomp and Wremap from the mesh's current
// refinement forest — this is the "translation" of an adapted grid onto
// the constant dual graph. An element's Root is its dual vertex, so the
// pass allocates nothing.
func (g *Graph) UpdateWeights(m *mesh.Mesh) {
	if m.NumRoots() != g.N {
		panic(fmt.Sprintf("dual: mesh has %d roots, graph has %d", m.NumRoots(), g.N))
	}
	clear(g.Wcomp)
	clear(g.Wremap)
	for i := range m.Elems {
		t := &m.Elems[i]
		if t.Dead {
			continue
		}
		g.Wremap[t.Root]++
		if t.Active() {
			g.Wcomp[t.Root]++
		}
	}
}

// TotalWcomp returns the sum of computational weights (the number of
// active elements in the mesh).
func (g *Graph) TotalWcomp() int64 {
	var s int64
	for _, w := range g.Wcomp {
		s += w
	}
	return s
}

// TotalWremap returns the sum of redistribution weights.
func (g *Graph) TotalWremap() int64 {
	var s int64
	for _, w := range g.Wremap {
		s += w
	}
	return s
}

// Nbrs returns vertex v's neighbours, a view into Adjncy.
func (g *Graph) Nbrs(v int32) []int32 {
	return g.Adjncy[g.Xadj[v]:g.Xadj[v+1]]
}

// NumEdges returns the number of (undirected) dual edges.
func (g *Graph) NumEdges() int {
	return len(g.Adjncy) / 2
}

// Check verifies the CSR adjacency: Xadj has N+1 entries and runs
// monotone from 0 to len(Adjncy), every neighbour is a vertex, no row
// holds its own vertex or a repeat, every edge appears in both its rows,
// and Wcomp has one entry per vertex. It returns the first violation.
func (g *Graph) Check() error {
	if len(g.Xadj) != g.N+1 {
		return fmt.Errorf("dual: len(Xadj) = %d, want N+1 = %d", len(g.Xadj), g.N+1)
	}
	if g.Xadj[0] != 0 || int(g.Xadj[g.N]) != len(g.Adjncy) {
		return fmt.Errorf("dual: Xadj runs %d..%d, want 0..%d", g.Xadj[0], g.Xadj[g.N], len(g.Adjncy))
	}
	if len(g.Wcomp) != g.N {
		return fmt.Errorf("dual: len(Wcomp) = %d, want N = %d", len(g.Wcomp), g.N)
	}
	for v := range g.N {
		if g.Xadj[v] > g.Xadj[v+1] {
			return fmt.Errorf("dual: Xadj falls at row %d: %d > %d", v, g.Xadj[v], g.Xadj[v+1])
		}
	}
	seen := make([]int32, g.N) // seen[w] == v+1: w already in row v
	for v := range int32(g.N) {
		for _, w := range g.Nbrs(v) {
			switch {
			case w < 0 || int(w) >= g.N:
				return fmt.Errorf("dual: row %d holds %d, outside [0, %d)", v, w, g.N)
			case w == v:
				return fmt.Errorf("dual: row %d holds a self-loop", v)
			case seen[w] == v+1:
				return fmt.Errorf("dual: row %d holds %d twice", v, w)
			case !slices.Contains(g.Nbrs(w), v):
				return fmt.Errorf("dual: edge %d-%d is missing from row %d", v, w, w)
			}
			seen[w] = v + 1
		}
	}
	return nil
}
