// Package vm is a genbump fixture shaped like the real vm package:
// Region/AddrSpace methods with mapping-observable fields, a gen
// counter, and the mutated() bump helper.
package vm

type chunk struct {
	state int
	node  int
	subs  *subArrays
}

// subArrays is the split record reached through chunk.subs.
type subArrays struct {
	node   [4]int
	acc    [4]uint32
	mapped int
}

func (c *chunk) mapSub(sub, node int) { c.subs.node[sub] = node }

type Region struct {
	Start  uint64
	Bytes  uint64
	chunks []chunk

	gen      uint64
	accesses []uint64
}

func (r *Region) Gen() uint64 { return r.gen }
func (r *Region) mutated()    { r.gen++ }

// MigrateChunk bumps: the well-behaved mutator.
func (r *Region) MigrateChunk(ci, node int) {
	r.chunks[ci].node = node
	r.mutated()
}

// MigratePT reproduces the PR 8 bug: an exported method that moves
// mapping-observable state and forgets the bump.
func (r *Region) MigratePT(ci, node int) { // want `Region.MigratePT writes mapping-observable state \(chunk.node\) without bumping the mapping generation`
	r.chunks[ci].node = node
}

// DirectBump increments gen inline instead of calling mutated().
func (r *Region) DirectBump(ci int) {
	r.chunks[ci].subs.mapped++
	r.gen++
}

// MapNested writes a page home through the chunk's split record: the
// write is charged to the innermost selector, subArrays.node.
func (r *Region) MapNested(ci, sub, node int) { // want `Region.MapNested writes mapping-observable state \(subArrays.node\) without bumping the mapping generation`
	r.chunks[ci].subs.node[sub] = node
}

// DropSplit discards a chunk's split record without bumping.
func (r *Region) DropSplit(ci int) { // want `Region.DropSplit writes mapping-observable state \(chunk.subs\) without bumping the mapping generation`
	r.chunks[ci].subs = nil
}

// MapVia calls the chunk helper, which is itself an observable write.
func (r *Region) MapVia(ci, sub, node int) { // want `Region.MapVia writes mapping-observable state \(chunk.mapSub\) without bumping the mapping generation`
	r.chunks[ci].mapSub(sub, node)
}

// Note records access accounting only: no obligation, also when it
// goes through the split record.
func (r *Region) Note(thread int, n uint64) {
	r.accesses[thread] += n
	r.chunks[0].subs.acc[thread]++
}

// reshape is unexported: callers own the bump.
func (r *Region) reshape(ci int) {
	r.chunks[ci].state = 2
}

// Exempt writes observable state but is annotated.
//
//lpnuma:genbump-ok fixture: snapshot restore rewrites gen itself afterwards
func (r *Region) Exempt(ci int) {
	r.chunks[ci].state = 1
}

type AddrSpace struct {
	regions []*Region
}

// Mmap appends a region without bumping anything: covered by
// GenBumpAllowlist ("AddrSpace.Mmap").
func (s *AddrSpace) Mmap(r *Region) {
	s.regions = append(s.regions, r)
}

// Munmap removes a region and is neither bumping nor allowlisted.
func (s *AddrSpace) Munmap(i int) { // want `AddrSpace.Munmap writes mapping-observable state \(AddrSpace.regions\) without bumping the mapping generation`
	s.regions = append(s.regions[:i], s.regions[i+1:]...)
}
