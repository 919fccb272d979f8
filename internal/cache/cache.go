// Package cache implements the memory-hierarchy substrate: LRU
// set-associative caches, a two-level hierarchy with TLBs, and a
// single-pass engine over stack-distance (all-associativity)
// simulators in the style of Mattson et al. and Hill & Smith — the
// single-pass techniques the paper cites for collecting cache
// statistics for many configurations in one run.
package cache

import "fmt"

// Config describes one cache.
type Config struct {
	Name       string
	SizeBytes  int64
	Ways       int
	BlockBytes int64
}

// Sets returns the number of sets.
func (c Config) Sets() int64 {
	return c.SizeBytes / (int64(c.Ways) * c.BlockBytes)
}

// Validate checks structural sanity.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry %+v", c.Name, c)
	}
	if c.SizeBytes%(int64(c.Ways)*c.BlockBytes) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by ways*block (%d*%d)",
			c.Name, c.SizeBytes, c.Ways, c.BlockBytes)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache %q: %d sets not a power of two", c.Name, s)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache %q: block size %d not a power of two", c.Name, c.BlockBytes)
	}
	return nil
}

func (c Config) String() string {
	return fmt.Sprintf("%s %dKB/%dway/%dB", c.Name, c.SizeBytes/1024, c.Ways, c.BlockBytes)
}

// Cache is an LRU set-associative cache. Tags are block addresses; the
// cache stores no data (timing/statistics simulation only).
type Cache struct {
	cfg      Config
	sets     int64
	blkShift uint
	// lines[set*ways+way]: tag, ordered most- to least-recently used.
	lines []line

	Accesses int64
	Misses   int64
}

type line struct {
	tag   int64
	valid bool
	dirty bool
}

// New builds a cache; the configuration must be valid.
func New(cfg Config) (*Cache, error) {
	return newWithBacking(cfg, nil)
}

// newWithBacking is New drawing the line array from backing when it is
// large enough, so aggregates (Hierarchy) can allocate all their
// caches' lines at once.
func newWithBacking(cfg Config, backing []line) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg, sets: cfg.Sets(), blkShift: log2(cfg.BlockBytes)}
	if n := c.sets * int64(cfg.Ways); int64(len(backing)) >= n {
		c.lines = backing[:n:n]
	} else {
		c.lines = make([]line, n)
	}
	return c, nil
}

// lineCount returns the number of lines a cache of this configuration
// holds; the configuration must be valid.
func lineCount(cfg Config) int64 { return cfg.Sets() * int64(cfg.Ways) }

// MustNew is New that panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Access looks up the block containing byteAddr, allocating on miss
// (write-allocate). It returns true on hit. If write is set and the
// block is resident or allocated, it is marked dirty. On a miss that
// evicts a dirty block, writeback is true and victimAddr is the byte
// address of the evicted block (for write-back traffic to the next
// level).
func (c *Cache) Access(byteAddr int64, write bool) (hit, writeback bool, victimAddr int64) {
	c.Accesses++
	tag := byteAddr >> c.blkShift
	set := tag & (c.sets - 1)
	base := set * int64(c.cfg.Ways)
	ways := c.cfg.Ways
	ls := c.lines[base : base+int64(ways)]

	for i := 0; i < ways; i++ {
		if ls[i].valid && ls[i].tag == tag {
			// Move to MRU position.
			hitLine := ls[i]
			copy(ls[1:i+1], ls[0:i])
			if write {
				hitLine.dirty = true
			}
			ls[0] = hitLine
			return true, false, 0
		}
	}
	c.Misses++
	victim := ls[ways-1]
	writeback = victim.valid && victim.dirty
	copy(ls[1:], ls[0:ways-1])
	ls[0] = line{tag: tag, valid: true, dirty: write}
	return false, writeback, victim.tag << c.blkShift
}

// Contains reports whether the block holding byteAddr is resident,
// without touching LRU state.
func (c *Cache) Contains(byteAddr int64) bool {
	tag := byteAddr >> c.blkShift
	set := tag & (c.sets - 1)
	base := set * int64(c.cfg.Ways)
	for i := 0; i < c.cfg.Ways; i++ {
		if c.lines[base+int64(i)].valid && c.lines[base+int64(i)].tag == tag {
			return true
		}
	}
	return false
}

// MissRate returns misses/accesses (0 if no accesses).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.Accesses, c.Misses = 0, 0
}

// TLB is a fully-associative LRU translation buffer.
type TLB struct {
	Entries   int
	PageBytes int64

	pages     []int64 // MRU..LRU page numbers
	pageShift uint

	Accesses int64
	Misses   int64
}

// NewTLB builds a TLB with the given entry count and page size (both
// must be positive; page size a power of two).
func NewTLB(entries int, pageBytes int64) (*TLB, error) {
	if entries <= 0 {
		return nil, fmt.Errorf("tlb: non-positive entries %d", entries)
	}
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		return nil, fmt.Errorf("tlb: page size %d not a positive power of two", pageBytes)
	}
	return &TLB{Entries: entries, PageBytes: pageBytes,
		pages: make([]int64, 0, entries), pageShift: log2(pageBytes)}, nil
}

// MustNewTLB is NewTLB that panics on error.
func MustNewTLB(entries int, pageBytes int64) *TLB {
	t, err := NewTLB(entries, pageBytes)
	if err != nil {
		panic(err)
	}
	return t
}

// Access translates byteAddr, returning true on TLB hit.
func (t *TLB) Access(byteAddr int64) bool {
	t.Accesses++
	page := byteAddr >> t.pageShift
	for i, p := range t.pages {
		if p == page {
			copy(t.pages[1:i+1], t.pages[0:i])
			t.pages[0] = page
			return true
		}
	}
	t.Misses++
	if len(t.pages) < t.Entries {
		t.pages = append(t.pages, 0)
	}
	copy(t.pages[1:], t.pages[0:len(t.pages)-1])
	t.pages[0] = page
	return false
}

// MissRate returns misses/accesses (0 if no accesses).
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}

// Reset clears contents and statistics.
func (t *TLB) Reset() {
	t.pages = t.pages[:0]
	t.Accesses, t.Misses = 0, 0
}

func log2(v int64) uint {
	var s uint
	for v > 1 {
		v >>= 1
		s++
	}
	return s
}
