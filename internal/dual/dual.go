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
package dual

import (
	"fmt"

	"plum/internal/geom"
	"plum/internal/mesh"
)

// Graph is the weighted dual graph of an initial tetrahedral mesh.
type Graph struct {
	// N is the number of dual vertices (= initial mesh elements).
	N int
	// Adj holds, for each dual vertex, the dual vertices whose elements
	// share a face with it (≤ 4 entries).
	Adj [][]int32
	// Wcomp is the computational weight of each dual vertex.
	Wcomp []int64
	// Wremap is the data-redistribution weight of each dual vertex.
	Wremap []int64
	// EdgeWeight is the uniform runtime-communication weight attached to
	// every dual edge (the paper uses uniform edge weights for its test
	// cases).
	EdgeWeight int64
	// Centroid caches each root element's centroid for geometric
	// (inertial) partitioning.
	Centroid []geom.Vec3
}

// Build constructs the dual graph of m's initial (level-0) elements. It
// must be called on the initial mesh, before or after adaption — level-0
// elements are never removed, so the graph is identical either way.
// Weights are initialized from the current refinement forest (Wcomp =
// Wremap = 1 on an unadapted mesh).
func Build(m *mesh.Mesh) *Graph {
	// Level-0 elements occupy a prefix of the element slab only on a
	// freshly generated mesh, so collect them explicitly.
	var roots []mesh.ElemID
	rootIdx := make(map[mesh.ElemID]int32)
	for i := range m.Elems {
		t := &m.Elems[i]
		if t.Level == 0 && !t.Dead {
			rootIdx[mesh.ElemID(i)] = int32(len(roots))
			roots = append(roots, mesh.ElemID(i))
		}
	}
	n := len(roots)
	g := &Graph{
		N:          n,
		Adj:        make([][]int32, n),
		Wcomp:      make([]int64, n),
		Wremap:     make([]int64, n),
		EdgeWeight: 1,
		Centroid:   make([]geom.Vec3, n),
	}

	// Face adjacency via a map from sorted vertex triples to elements.
	type faceKey [3]mesh.VertID
	mk := func(a, b, c mesh.VertID) faceKey {
		if a > b {
			a, b = b, a
		}
		if b > c {
			b, c = c, b
		}
		if a > b {
			a, b = b, a
		}
		return faceKey{a, b, c}
	}
	faces := make(map[faceKey]int32, 2*n)
	for i, el := range roots {
		t := &m.Elems[el]
		g.Centroid[i] = m.ElemCentroid(el)
		for _, fv := range mesh.ElemFaceVerts {
			k := mk(t.V[fv[0]], t.V[fv[1]], t.V[fv[2]])
			if j, ok := faces[k]; ok {
				g.Adj[i] = append(g.Adj[i], j)
				g.Adj[j] = append(g.Adj[j], int32(i))
				delete(faces, k)
			} else {
				faces[k] = int32(i)
			}
		}
	}
	g.UpdateWeights(m)
	return g
}

// UpdateWeights recomputes Wcomp and Wremap from the mesh's current
// refinement forest — this is the "translation" of an adapted grid onto
// the constant dual graph. It assumes roots are exactly the level-0
// elements in their original order (as produced by Build).
func (g *Graph) UpdateWeights(m *mesh.Mesh) {
	for i := range g.Wcomp {
		g.Wcomp[i] = 0
		g.Wremap[i] = 0
	}
	idx := make([]int32, len(m.Elems)) // root element id → dual index
	n := int32(0)
	for i := range m.Elems {
		t := &m.Elems[i]
		if t.Level == 0 && !t.Dead {
			idx[i] = n
			n++
		}
	}
	if int(n) != g.N {
		panic(fmt.Sprintf("dual: mesh has %d roots, graph has %d", n, g.N))
	}
	for i := range m.Elems {
		t := &m.Elems[i]
		if t.Dead {
			continue
		}
		r := idx[t.Root]
		g.Wremap[r]++
		if t.Active() {
			g.Wcomp[r]++
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

// NumEdges returns the number of (undirected) dual edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, a := range g.Adj {
		n += len(a)
	}
	return n / 2
}

// Agglomerate groups dual vertices into superelements of roughly the given
// size by greedy BFS growth, returning a new graph and the mapping from
// original vertices to superelements. The paper suggests this to bound
// partitioning time for extremely large initial meshes.
func (g *Graph) Agglomerate(size int) (*Graph, []int32) {
	if size < 1 {
		size = 1
	}
	group := make([]int32, g.N)
	for i := range group {
		group[i] = -1
	}
	var nGroups int32
	queue := make([]int32, 0, size)
	for s := 0; s < g.N; s++ {
		if group[s] >= 0 {
			continue
		}
		id := nGroups
		nGroups++
		cnt := 0
		queue = append(queue[:0], int32(s))
		group[s] = id
		for len(queue) > 0 && cnt < size {
			v := queue[0]
			queue = queue[1:]
			cnt++
			for _, w := range g.Adj[v] {
				if group[w] < 0 && cnt+len(queue) < size {
					group[w] = id
					queue = append(queue, w)
				}
			}
		}
	}
	coarse := &Graph{
		N:          int(nGroups),
		Adj:        make([][]int32, nGroups),
		Wcomp:      make([]int64, nGroups),
		Wremap:     make([]int64, nGroups),
		EdgeWeight: g.EdgeWeight,
		Centroid:   make([]geom.Vec3, nGroups),
	}
	wsum := make([]float64, nGroups)
	seen := make(map[[2]int32]bool)
	for v := 0; v < g.N; v++ {
		gv := group[v]
		coarse.Wcomp[gv] += g.Wcomp[v]
		coarse.Wremap[gv] += g.Wremap[v]
		coarse.Centroid[gv] = coarse.Centroid[gv].Add(g.Centroid[v])
		wsum[gv]++
		for _, w := range g.Adj[v] {
			gw := group[w]
			if gv == gw {
				continue
			}
			a, b := gv, gw
			if a > b {
				a, b = b, a
			}
			if !seen[[2]int32{a, b}] {
				seen[[2]int32{a, b}] = true
				coarse.Adj[a] = append(coarse.Adj[a], b)
				coarse.Adj[b] = append(coarse.Adj[b], a)
			}
		}
	}
	for i := range coarse.Centroid {
		if wsum[i] > 0 {
			coarse.Centroid[i] = coarse.Centroid[i].Scale(1 / wsum[i])
		}
	}
	return coarse, group
}
