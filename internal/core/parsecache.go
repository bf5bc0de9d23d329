package core

import (
	"container/list"
	"sync"

	"repro/internal/rel"
	"repro/internal/sql/ast"
)

// parseCacheSize bounds the number of cached statement lists. Repeated
// statements (the dominant pattern in the benchmark scenarios: Game of
// Life steps, image kernels, guarded updates) hit the cache and skip the
// parser entirely.
const parseCacheSize = 256

// parseCache is a bounded LRU from a cache key to parsed statements.
// Parsing is catalog-independent, so entries stay valid across DML; the
// engine still purges on DDL out of caution, since DDL is rare and a stale
// AST bug would be miserable to chase.
//
// The cache key (see cacheKey) is, exhaustively:
//
//   - the raw SQL text, and
//   - the join order mode (rel.JoinOrdering), so a mode switch between
//     executions of the same text can never replay a plan decided under
//     the other mode if plan state ever attaches to cached entries.
//
// Deliberately NOT part of the key: the kernel thread count
// (par.Threads) and the slab-encoding toggle (bat.EncodingsEnabled) —
// both are pure execution-time switches consulted after binding, and only
// parsed ASTs are cached, so entries stay correct across changes to
// either. If you add a process-wide flag that changes what compilation
// produces from a cached AST before execution, add it to cacheKey.
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

// cacheKey builds the cache key for a query text: every component that
// affects what a cached entry means (see the type comment for the
// rationale per component).
func cacheKey(query string) string {
	return rel.JoinOrdering().String() + "\x00" + query
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
// when full.
func (c *parseCache) put(query string, stmts []ast.Statement) {
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

// purge drops every entry (DDL invalidation).
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
