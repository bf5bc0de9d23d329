package parser

import (
	"repro/internal/sql/ast"
	"repro/internal/sql/lexer"
)

func (p *parser) parseSelect() (*ast.Select, error) {
	start := p.cur()
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	sel := &ast.Select{Pos: p.posOf(start)}
	if p.acceptKw("DISTINCT") {
		sel.Distinct = true
	} else {
		p.acceptKw("ALL")
	}
	// Projection list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if p.acceptKw("FROM") {
		for {
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, tr)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if p.acceptKw("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		if err := p.parseGroupBy(sel); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := ast.OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if p.acceptKw("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
	}
	if p.acceptKw("OFFSET") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Offset = e
	}
	if p.acceptKw("UNION") {
		if len(sel.OrderBy) > 0 || sel.Limit != nil || sel.Offset != nil {
			return nil, p.errf("ORDER BY, LIMIT and OFFSET must follow the last arm of a UNION ALL")
		}
		if err := p.expectKw("ALL"); err != nil {
			return nil, p.errf("only UNION ALL is supported")
		}
		rest, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		// The trailing ORDER BY/LIMIT/OFFSET belongs to the whole union,
		// which the head carries.
		sel.OrderBy, sel.Limit, sel.Offset = rest.OrderBy, rest.Limit, rest.Offset
		rest.OrderBy, rest.Limit, rest.Offset = nil, nil, nil
		sel.UnionAll = rest
	}
	return sel, nil
}

// parseSelectItem handles `*`, `[expr] [AS alias]` (SciQL dimensional
// qualifier) and `expr [AS alias]`.
func (p *parser) parseSelectItem() (ast.SelectItem, error) {
	if p.isOp("*") {
		p.next()
		return ast.SelectItem{Star: true}, nil
	}
	item := ast.SelectItem{}
	if p.isOp("[") {
		// Dimensional qualifier [expr]. Distinguish from a leading cell
		// reference: a cell ref starts with an identifier, not '['.
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return ast.SelectItem{}, err
		}
		if err := p.expectOp("]"); err != nil {
			return ast.SelectItem{}, err
		}
		item.Expr = e
		item.Dimensional = true
	} else {
		e, err := p.parseExpr()
		if err != nil {
			return ast.SelectItem{}, err
		}
		item.Expr = e
	}
	if p.acceptKw("AS") {
		a, _, err := p.expectIdent()
		if err != nil {
			return ast.SelectItem{}, err
		}
		item.Alias = a
	} else if p.cur().Type == lexer.Ident {
		// Bare alias.
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *parser) parseTableRef() (ast.TableRef, error) {
	left, err := p.parseTableRefPrimary()
	if err != nil {
		return nil, err
	}
	for {
		start := p.cur()
		leftOuter := false
		switch {
		case p.isKw("JOIN"):
			p.next()
		case p.isKw("INNER") && p.peekAt(1).Text == "JOIN":
			p.next()
			p.next()
		case p.isKw("LEFT"):
			p.next()
			p.acceptKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			leftOuter = true
		default:
			return left, nil
		}
		right, err := p.parseTableRefPrimary()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		left = &ast.JoinRef{Left: left, Right: right, LeftOuter: leftOuter, On: on, Pos: p.posOf(start)}
	}
}

func (p *parser) parseTableRefPrimary() (ast.TableRef, error) {
	start := p.cur()
	if p.acceptOp("(") {
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		alias := ""
		if p.acceptKw("AS") {
			a, _, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			alias = a
		} else if p.cur().Type == lexer.Ident {
			alias = p.next().Text
		}
		return &ast.SubqueryRef{Query: q, Alias: alias, Pos: p.posOf(start)}, nil
	}
	name, pos, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ref := &ast.BaseTable{Name: name, Pos: pos}
	if p.acceptKw("AS") {
		a, _, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ref.Alias = a
	} else if p.cur().Type == lexer.Ident {
		ref.Alias = p.next().Text
	}
	return ref, nil
}

// parseGroupBy distinguishes structural grouping — an identifier directly
// followed by '[' — from value-based grouping (an expression list).
func (p *parser) parseGroupBy(sel *ast.Select) error {
	if p.cur().Type == lexer.Ident && p.peekAt(1).Type == lexer.Op && p.peekAt(1).Text == "[" {
		start := p.cur()
		name := p.next().Text
		spec := &ast.TileSpec{Array: name, Pos: p.posOf(start)}
		for p.isOp("[") {
			p.next()
			lo, err := p.parseExpr()
			if err != nil {
				return err
			}
			td := ast.TileDim{Lo: lo}
			if p.acceptOp(":") {
				second, err := p.parseExpr()
				if err != nil {
					return err
				}
				if p.acceptOp(":") {
					third, err := p.parseExpr()
					if err != nil {
						return err
					}
					td.Step = second
					td.Hi = third
				} else {
					td.Hi = second
				}
			}
			if err := p.expectOp("]"); err != nil {
				return err
			}
			spec.Dims = append(spec.Dims, td)
		}
		sel.Tile = spec
		return nil
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		sel.GroupBy = append(sel.GroupBy, e)
		if p.acceptOp(",") {
			continue
		}
		return nil
	}
}
