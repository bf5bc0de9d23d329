package core

import (
	"container/list"
	"sync"

	"repro/internal/sql/ast"
)

// parseCacheSize bounds the number of cached statement lists. Repeated
// statements (the dominant pattern in the benchmark scenarios: Game of
// Life steps, image kernels, guarded updates) hit the cache and skip the
// parser entirely.
const parseCacheSize = 256

// parseCacheMaxText is the longest query text the cache keeps. Longer
// texts are bulk loads (a multi-row INSERT ... VALUES) that run once, and
// their ASTs are about fifteen times the text: 2^19 rows loaded in 8192-row
// batches would keep ~290 MB of dead ASTs live, which every later garbage
// collection marks again.
const parseCacheMaxText = 4 << 10

// parseCache is a bounded LRU from a query text to its parsed statements.
// Parsing depends on the text alone, not on the catalog or any execution
// setting, and only parsed ASTs are cached, so entries stay valid across
// DML and DDL: a cached statement is bound against the catalog of each
// execution afresh.
//
// Cached ASTs are shared across executions: the binder and compiler treat
// the AST as read-only (they build fresh rel/MAL nodes), which is what
// makes reuse safe.
type parseCache struct {
	mu    sync.Mutex
	items map[string]*list.Element
	order *list.List // front = most recently used
}

type parseEntry struct {
	key   string
	stmts []ast.Statement
}

func newParseCache() *parseCache {
	return &parseCache{
		items: make(map[string]*list.Element, parseCacheSize),
		order: list.New(),
	}
}

// get returns the cached statements for query, marking the entry as
// recently used.
func (c *parseCache) get(query string) ([]ast.Statement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[query]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*parseEntry).stmts, true
}

// put stores the parsed statements, evicting the least recently used entry
// when full. A text longer than parseCacheMaxText is not stored.
func (c *parseCache) put(query string, stmts []ast.Statement) {
	if len(query) > parseCacheMaxText {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[query]; ok {
		el.Value.(*parseEntry).stmts = stmts
		c.order.MoveToFront(el)
		return
	}
	if len(c.items) >= parseCacheSize {
		if lru := c.order.Back(); lru != nil {
			c.order.Remove(lru)
			delete(c.items, lru.Value.(*parseEntry).key)
		}
	}
	c.items[query] = c.order.PushFront(&parseEntry{key: query, stmts: stmts})
}

// purge drops every entry (a replica re-bootstrapping its catalog).
func (c *parseCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.items)
	c.order.Init()
}

// len returns the number of cached entries (tests).
func (c *parseCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
