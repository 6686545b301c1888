package mesh

import (
	"fmt"
	"strings"
	"testing"

	"plum/internal/geom"
)

// These failure-injection tests corrupt a valid mesh in each of the ways
// the consistency checker claims to detect, and verify it actually does.

func validPair(t *testing.T) *Mesh {
	t.Helper()
	m := New(2)
	v0 := m.AddVertex(geom.Vec3{})
	v1 := m.AddVertex(geom.Vec3{X: 1})
	v2 := m.AddVertex(geom.Vec3{Y: 1})
	v3 := m.AddVertex(geom.Vec3{Z: 1})
	v4 := m.AddVertex(geom.Vec3{X: 1, Y: 1, Z: 1})
	m.AddElement(v0, v1, v2, v3, InvalidElem, InvalidElem, 0)
	m.AddElement(v1, v2, v3, v4, InvalidElem, InvalidElem, 0)
	if err := m.Check(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return m
}

func wantCheckError(t *testing.T, m *Mesh, substr string) {
	t.Helper()
	err := m.Check()
	if err == nil {
		t.Fatalf("corruption not detected (want error containing %q)", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("detected wrong violation: %v (want %q)", err, substr)
	}
}

func TestCheckDetectsStaleIncidence(t *testing.T) {
	m := validPair(t)
	// Inject a stale entry into an edge's element list.
	m.addEdgeElem(0, 1)
	wantCheckError(t, m, "incidence")
}

func TestCheckDetectsMissingIncidence(t *testing.T) {
	m := validPair(t)
	m.Edge(0).nElems = 0
	wantCheckError(t, m, "incidence")
}

func TestCheckDetectsDanglingVertexEdge(t *testing.T) {
	m := validPair(t)
	// Vertex incidence listing an edge that does not contain it.
	other := m.FindEdge(2, 3)
	m.addVertEdge(0, other)
	wantCheckError(t, m, "does not contain")
}

func TestCheckDetectsWrongEdgeEndpoints(t *testing.T) {
	m := validPair(t)
	m.Edge(m.Tet(0).E[0]).V = [2]VertID{2, 3}
	wantCheckError(t, m, "endpoints")
}

func TestCheckDetectsActiveElementOnBisectedEdge(t *testing.T) {
	m := validPair(t)
	e := m.Tet(0).E[0]
	// Forge a bisection without subdividing the element.
	mid := m.AddVertex(geom.Vec3{X: 0.5})
	c0 := m.AddEdge(m.Edge(e).V[0], mid)
	c1 := m.AddEdge(mid, m.Edge(e).V[1])
	ed := m.Edge(e)
	ed.Child = [2]EdgeID{c0, c1}
	ed.Mid = mid
	wantCheckError(t, m, "bisected")
}

func TestCheckDetectsCounterDrift(t *testing.T) {
	m := validPair(t)
	m.nActiveElems++
	wantCheckError(t, m, "counter")
}

func TestCheckDetectsNegativeVolume(t *testing.T) {
	m := validPair(t)
	// Move a vertex so element 0 inverts. Element 0 is (0,1,2,3); push
	// vertex 3 through the opposite face.
	m.Vert(3).Pos = geom.Vec3{X: 0.6, Y: 0.6, Z: -2}
	if err := m.Check(); err == nil {
		t.Fatal("inverted element not detected")
	}
}

func TestCheckDetectsDeadEdgeInUse(t *testing.T) {
	m := validPair(t)
	m.Edge(m.Tet(0).E[0]).Dead = true
	err := m.Check()
	if err == nil {
		t.Fatal("dead edge in use not detected")
	}
}

func TestCheckDetectsFaceOverForeignEdge(t *testing.T) {
	m := validPair(t)
	m.AddBoundaryFace(0, 1, 2, 0)
	// Point the face at an edge with the wrong endpoints.
	m.Face(0).E[0] = m.FindEdge(2, 3)
	wantCheckError(t, m, "face")
}

func TestCheckDetectsDuplicateEdge(t *testing.T) {
	m := validPair(t)
	// A second live edge over the endpoints of edge 0, registered the way
	// AddEdge would have: FindEdge could return either.
	dup := *m.Edge(0)
	dup.elemOff, dup.nElems, dup.elemCls = 0, 0, 0
	m.edges.push(dup)
	id := EdgeID(m.EdgeSlots() - 1)
	for _, v := range dup.V {
		m.addVertEdge(v, id)
	}
	m.nActiveEdges++
	wantCheckError(t, m, "connects the same vertices")
}

func TestCheckDetectsEdgeListedTwice(t *testing.T) {
	m := validPair(t)
	v := m.Edge(0).V[0]
	m.addVertEdge(v, 0)
	wantCheckError(t, m, "incidence list 2 times")
}

func TestCheckDetectsEdgeMissingFromVertexList(t *testing.T) {
	m := validPair(t)
	v := m.Edge(0).V[1]
	m.delVertEdge(v, 0)
	wantCheckError(t, m, "incidence list 0 times")
}

func TestCheckDetectsListPastItsBlock(t *testing.T) {
	m := validPair(t)
	m.Edge(0).elemOff = int32(m.elemBlk.len()) // a carve past the block's end
	wantCheckError(t, m, "edge 0: element list")

	m = validPair(t)
	m.elemBlk.carve(maxCarve) // a second page in use
	m.elemBlk.carve(maxCarve)
	m.Edge(0).elemOff = 1<<pageShift[ElemID]() - 2 // a carve across the page boundary
	wantCheckError(t, m, "edge 0: element list")

	m = validPair(t)
	m.Vert(0).nEdges = vertEdgeCap + 1 // more entries than the carve holds
	wantCheckError(t, m, "vertex 0: edge list")
}

func TestCheckDetectsBrokenRootPrefix(t *testing.T) {
	m := validPair(t)
	m.Elems[1].Root = 0 // a root that is not its own
	wantCheckError(t, m, "roots are the prefix")

	m = validPair(t)
	m.Elems[1].Level = 1 // a child inside the prefix
	wantCheckError(t, m, "roots are the prefix")

	m = validPair(t)
	m.nRoots = 1 // a level-0 element past it
	wantCheckError(t, m, "roots are the prefix")
}

func TestAddElementPanicsOnRootAfterChild(t *testing.T) {
	m := validPair(t)
	mid := m.AddVertex(geom.Vec3{X: 0.5})
	m.AddElement(0, mid, 2, 3, 0, 0, 1)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "initial element added after a refinement child") {
			t.Fatalf("root after a child: got panic %q", msg)
		}
	}()
	m.AddElement(1, 2, 3, mid, InvalidElem, InvalidElem, 0)
}

func TestAddElementPanicsPastLevel255(t *testing.T) {
	m := validPair(t)
	mid := m.AddVertex(geom.Vec3{X: 0.5})
	m.AddElement(0, mid, 2, 3, 0, 0, 255)
	if got := m.Elems[2].Level; got != 255 {
		t.Fatalf("level %d, want 255", got)
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "refinement level 256 outside [0, 255]") {
			t.Fatalf("level 256: got panic %q", msg)
		}
	}()
	m.AddElement(mid, 1, 2, 3, 0, 0, 256)
}

func TestCheckDetectsUnorderedEndpoints(t *testing.T) {
	m := validPair(t)
	ed := m.Edge(0)
	ed.V[0], ed.V[1] = ed.V[1], ed.V[0]
	wantCheckError(t, m, "ascending")
}

// splitPair is validPair with element 0 split in two across its edge
// (0, 1): a sibling group, elements [2, 4).
func splitPair(t *testing.T) *Mesh {
	t.Helper()
	m := validPair(t)
	mid := m.BisectEdge(m.FindEdge(0, 1))
	m.DeactivateElement(0)
	m.AddElement(0, mid, 2, 3, 0, 0, 1)
	m.AddElement(mid, 1, 2, 3, 0, 0, 1)
	if first, n := m.Elems[0].Children(); first != 2 || n != 2 {
		t.Fatalf("fixture: children [%d, %d), want [2, 4)", first, int(first)+n)
	}
	if err := m.Check(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return m
}

func TestCheckDetectsBrokenChildRange(t *testing.T) {
	m := splitPair(t)
	m.Elems[3].Parent = 1 // a member with another parent
	wantCheckError(t, m, "another parent")

	m = splitPair(t)
	m.DeactivateElement(3)
	m.KillElement(3) // half the group removed
	wantCheckError(t, m, "partly dead")

	m = splitPair(t)
	m.Elems[0].nKids = 1 // a live child outside its parent's range
	wantCheckError(t, m, "not in its parent")

	for _, p := range []ElemID{4, -2} {
		m = splitPair(t)
		m.Elems[1].Parent = p // a parent past either end of the slab
		wantCheckError(t, m, "outside the slab")
	}

	m = validPair(t)
	m.AddBoundaryFace(0, 1, 2, 0)
	m.AddBoundaryFace(0, 1, 3, 0)
	f := m.Face(0)
	f.kids, f.nKids = 1, 1 // a face group whose member has no parent
	wantCheckError(t, m, "face 0: child range member 1 has another parent")
}

// wantPanic runs f and fails unless it panics with a message containing
// substr.
func wantPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, substr) {
			t.Fatalf("got panic %q, want one containing %q", msg, substr)
		}
	}()
	f()
}

func TestListWritersPanicOnBrokenLists(t *testing.T) {
	// Removing an entry a list does not hold: the element is no longer on
	// its edges' lists the second time.
	m := validPair(t)
	m.DeactivateElement(0)
	wantPanic(t, "does not hold", func() { m.DeactivateElement(0) })

	// A list at the largest length its field holds.
	var blk paged[EdgeID]
	n, cls := uint16(maxListLen), classOf(maxListLen, vertEdgeCap)
	off := blk.carve(capOf(cls, vertEdgeCap))
	wantPanic(t, "list length overflows", func() { push(&blk, &off, &n, &cls, 0, vertEdgeCap) })

	// A sibling group at the largest count its field holds, and an id that
	// does not extend a group.
	first, kids := ElemID(0), uint8(maxChildren)
	wantPanic(t, "child count overflows", func() { addChild(&first, &kids, maxChildren) })
	kids = 2
	wantPanic(t, "consecutive ids", func() { addChild(&first, &kids, 3) })
}
