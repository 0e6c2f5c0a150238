package engine

import "repro/internal/network"

// The engine keeps every per-node output — the node's disk, its neighbor
// list, its forwarding set and whether its own disk is in its cover — in
// one copy-on-write paged store. A published View is a copy of the store's
// page directory, not of the per-node data, so publishing an epoch costs
// N/pageSize pointer copies plus one private copy of each page the pass
// wrote: O(dirty) work where the flat snapshot used to copy three N-length
// slices.
//
// The ownership rule: a page created after the last publish belongs to the
// engine alone and may be written in place; a page reachable from any View
// is frozen. Every pass therefore makes the pages it will write private —
// sequentially, before the parallel fan-out, because own() replaces
// directory entries — and workers then write only their own nodes' slots.
// Generation stamps make "frozen" free to track: publish bumps the store
// generation, which freezes every existing page at once.

// pageShift sets the page size, 1<<pageShift nodes per page. A smaller page
// copies less per dirty node (a pure-mobility pass dirties nodes scattered
// across the ID space, so each dirty node tends to cost a whole page) and a
// larger one shrinks the directory every publish copies. The choice is
// measured in docs/PERFORMANCE.md ("Copy-on-write epoch views").
const (
	pageShift = 3
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// page holds the per-node state of pageSize consecutive slots. A present
// slot holds a node (radius > 0) and its ordering key; an absent slot holds
// a zero-radius node, key 0 and empty outputs.
type page struct {
	gen   uint64 // the store generation this page is private to
	node  [pageSize]network.Node
	key   [pageSize]int64
	nbrs  [pageSize][]int
	fwd   [pageSize][]int
	hubIn [pageSize]bool
}

// pageStore is the engine's copy-on-write per-node store over the slot
// range [0, n).
type pageStore struct {
	n     int
	gen   uint64
	pages []*page
}

// reset replaces the store with fresh private pages for n absent slots.
// Pages of earlier Views are left untouched.
func (s *pageStore) reset(n int) {
	s.gen++
	s.n = 0
	s.pages = make([]*page, 0, (n+pageMask)>>pageShift)
	s.grow(n)
}

// grow extends the slot range to n with absent slots on fresh private
// pages; slots past the old range on its last page are already absent.
func (s *pageStore) grow(n int) {
	for len(s.pages) < (n+pageMask)>>pageShift {
		p := &page{gen: s.gen}
		base := len(s.pages) << pageShift
		for i := range p.node {
			p.node[i].ID = base + i
		}
		s.pages = append(s.pages, p)
	}
	s.n = max(s.n, n)
}

// at returns node u's page and slot. Writes through it are legal only on a
// page made private by own during the current pass.
func (s *pageStore) at(u int) (*page, int) {
	return s.pages[u>>pageShift], u & pageMask
}

// node returns node u's current disk state.
func (s *pageStore) node(u int) *network.Node {
	return &s.pages[u>>pageShift].node[u&pageMask]
}

// present reports whether slot u holds a node.
func (s *pageStore) present(u int) bool {
	return s.pages[u>>pageShift].node[u&pageMask].Radius > 0
}

// key returns slot u's ordering key.
func (s *pageStore) key(u int) int64 {
	return s.pages[u>>pageShift].key[u&pageMask]
}

// nbrs returns node u's current neighbor list.
func (s *pageStore) nbrs(u int) []int {
	return s.pages[u>>pageShift].nbrs[u&pageMask]
}

// state returns slot u's node and key as a Delta (Leave when absent), the
// form Apply compares to detect an unchanged slot.
func (s *pageStore) state(u int) Delta {
	p, i := s.at(u)
	if !(p.node[i].Radius > 0) {
		return Delta{Slot: u, Leave: true}
	}
	return Delta{Slot: u, Key: p.key[i], Pos: p.node[i].Pos, Radius: p.node[i].Radius}
}

// write sets slot d.Slot's node and key, or makes the slot absent for a
// leave; the outputs are the pass's to update. The page must be private
// (own).
func (s *pageStore) write(d Delta) {
	p, i := s.at(d.Slot)
	if d.Leave {
		p.node[i], p.key[i] = network.Node{ID: d.Slot}, 0
		return
	}
	p.node[i], p.key[i] = network.Node{ID: d.Slot, Pos: d.Pos, Radius: d.Radius}, d.Key
}

// own makes node u's page private to the current generation, copying it if
// a View may hold it. Sequential only: it rewrites the directory.
func (s *pageStore) own(u int) {
	i := u >> pageShift
	if p := s.pages[i]; p.gen != s.gen {
		cp := new(page)
		*cp = *p
		cp.gen = s.gen
		s.pages[i] = cp
	}
}

// publish freezes the current pages into an immutable View.
func (s *pageStore) publish(epoch uint64, st Stats) *View {
	v := &View{Epoch: epoch, Stats: st, n: s.n, pages: append([]*page(nil), s.pages...)}
	s.gen++
	return v
}

// View is one published epoch of the engine's per-node output: read-only
// accessors over a frozen page directory, indexed by slot. Later passes copy a page before
// writing it and replace per-node slices instead of writing through them,
// so a View stays internally consistent forever and may be read
// concurrently, e.g. through an atomic.Pointer, while the engine keeps
// computing — the epoch-snapshot read path mldcsd serves queries from.
// The slices the accessors return are shared with the engine and with
// other Views and must not be modified.
//
//mldcs:immutable
type View struct {
	// Epoch numbers the pass that produced this View: 1 for the first
	// successful pass, incremented by every later Compute, Update or
	// Apply.
	Epoch uint64
	// Stats describes the pass that produced this View.
	Stats Stats
	n     int
	pages []*page
}

// Len returns the slot range: accessors take 0 ≤ u < Len(). A slot that
// holds no node (an absent slot: never filled, or left) returns a
// zero-radius Node, key 0 and empty lists; Stats.Nodes counts the present
// ones.
func (v *View) Len() int { return v.n }

// Node returns node u as the pass saw it: ID u, position and radius.
func (v *View) Node(u int) network.Node { return v.pages[u>>pageShift].node[u&pageMask] }

// Key returns slot u's ordering key: the dense ID for Compute and Update,
// the caller's key for Apply (mldcsd passes the external node ID).
func (v *View) Key(u int) int64 { return v.pages[u>>pageShift].key[u&pageMask] }

// Neighbors returns u's sorted bidirectional 1-hop neighbor IDs, exactly as
// network.Build would report them.
func (v *View) Neighbors(u int) []int { return v.pages[u>>pageShift].nbrs[u&pageMask] }

// Forwarding returns the sorted IDs of u's forwarding set: the neighbors
// whose disks contribute arcs to u's skyline.
func (v *View) Forwarding(u int) []int { return v.pages[u>>pageShift].fwd[u&pageMask] }

// HubInCover reports whether u's own disk is in its minimum local disk
// cover set.
func (v *View) HubInCover(u int) bool { return v.pages[u>>pageShift].hubIn[u&pageMask] }

// Result renders the View as a flat Result, O(Len()): fresh top-level
// slices whose per-node sub-slices are shared with the View.
func (v *View) Result() *Result {
	fwd := make([][]int, v.n)
	hubIn := make([]bool, v.n)
	nbrs := make([][]int, v.n)
	for i, p := range v.pages {
		lo := i << pageShift
		k := min(pageSize, v.n-lo)
		copy(fwd[lo:], p.fwd[:k])
		copy(hubIn[lo:], p.hubIn[:k])
		copy(nbrs[lo:], p.nbrs[:k])
	}
	return &Result{Epoch: v.Epoch, Forwarding: fwd, HubInCover: hubIn, Neighbors: nbrs, Stats: v.Stats}
}
