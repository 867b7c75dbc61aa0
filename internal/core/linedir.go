package core

import "repro/internal/cache"

// dirPageLines is the directory's page size in lines: a 4 KB page of
// 64-byte lines, the workload generator's page. Warm-up and streaming
// access touch lines page by page, so consecutive lookups almost always
// land on the same page.
const (
	dirPageBits  = 6
	dirPageLines = 1 << dirPageBits
)

// dirPage holds one page's line locations, each stored as cluster+1 so
// that the zero value means absent. One byte per line is enough because
// config.Validate rejects machines with more than 64 clusters.
type dirPage struct {
	loc  [dirPageLines]uint8
	live int // non-zero entries in loc
}

// lineDir is the global line-location directory: which cluster holds the
// authoritative copy of each resident L2 line. It is a map of pages rather
// than a map of lines, so the map holds one entry per 64 lines and stays
// small enough to live in the host's cache, and the last page used is
// cached so runs of lookups within a page skip the map entirely. A page is
// freed as soon as its last line leaves, so memory stays bounded by the
// lines the L2 holds, whatever addresses a stream touches.
type lineDir struct {
	pages map[uint64]*dirPage
	n     int

	// last caches the page most recently found or created (nil when none);
	// lastKey is its page number.
	last    *dirPage
	lastKey uint64
}

func newLineDir() lineDir { return lineDir{pages: make(map[uint64]*dirPage)} }

// page returns the page holding addr, or nil when it holds no lines.
func (d *lineDir) page(addr cache.LineAddr) *dirPage {
	key := uint64(addr) >> dirPageBits
	if d.last != nil && d.lastKey == key {
		return d.last
	}
	p := d.pages[key]
	if p != nil {
		d.last, d.lastKey = p, key
	}
	return p
}

// Get returns the cluster holding addr and whether the line is resident.
func (d *lineDir) Get(addr cache.LineAddr) (int, bool) {
	p := d.page(addr)
	if p == nil {
		return 0, false
	}
	v := p.loc[addr%dirPageLines]
	return int(v) - 1, v != 0
}

// Set records that cluster holds addr.
func (d *lineDir) Set(addr cache.LineAddr, cluster int) {
	p := d.page(addr)
	if p == nil {
		p = new(dirPage)
		key := uint64(addr) >> dirPageBits
		d.pages[key] = p
		d.last, d.lastKey = p, key
	}
	slot := &p.loc[addr%dirPageLines]
	if *slot == 0 {
		p.live++
		d.n++
	}
	*slot = uint8(cluster + 1)
}

// Delete removes addr, freeing its page when the page empties.
func (d *lineDir) Delete(addr cache.LineAddr) {
	p := d.page(addr)
	if p == nil {
		return
	}
	slot := &p.loc[addr%dirPageLines]
	if *slot == 0 {
		return
	}
	*slot = 0
	p.live--
	d.n--
	if p.live == 0 {
		delete(d.pages, uint64(addr)>>dirPageBits)
		d.last = nil
	}
}

// Len returns the number of resident lines.
func (d *lineDir) Len() int { return d.n }

// Walk calls fn for every resident line, in no particular order.
func (d *lineDir) Walk(fn func(addr cache.LineAddr, cluster int)) {
	for key, p := range d.pages {
		base := cache.LineAddr(key << dirPageBits)
		for i, v := range p.loc {
			if v != 0 {
				fn(base+cache.LineAddr(i), int(v)-1)
			}
		}
	}
}
