package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ResultImmutAnalyzer makes hiddendb's read-only-by-convention rule a
// build error. Results (and the tuples they carry) may alias storage
// shared with the hidden database and the history cache's immutable
// entries, which every caller of the same query reads — so code may only
// write through a Result or Tuple it *owns*: one it built itself (a
// composite literal, new, or the zero value) or obtained from Clone.
//
// Concretely, for values of type hiddendb.Result / hiddendb.Tuple:
//
//   - field writes (res.Overflow = ..., res.Tuples[i] = ..., t.ID = ...)
//     are flagged unless the value is rooted at a locally owned variable;
//   - writes into a tuple's Vals/Nums element storage are flagged unless
//     the *tuple itself* is an owned local — even a freshly built Result
//     routinely shares its tuples' backing arrays (db.Execute copies
//     tuple structs out of the DB's immutable table), so owning the
//     Result does not confer ownership of element storage. Clone the
//     tuple.
//
// A local counts as owned when every value ever assigned to it in the
// function is an owning expression: a (possibly &-prefixed) composite
// literal, new(T), or a call to a method or function named Clone.
// Parameters, receivers, range variables and call results are never
// owned. Writes through aliased slices (vals := t.Vals; vals[0] = ...)
// are beyond a per-function syntactic check and stay covered by the
// -race suite.
var ResultImmutAnalyzer = &Analyzer{
	Name: "resultimmut",
	Doc: "flags writes through shared hiddendb.Result/Tuple storage; mutate only values " +
		"you constructed or Cloned",
	Run: runResultImmut,
}

func isResult(info *types.Info, e ast.Expr) bool { return exprIsPkgType(info, e, "Result") }
func isTuple(info *types.Info, e ast.Expr) bool  { return exprIsPkgType(info, e, "Tuple") }

func exprIsPkgType(info *types.Info, e ast.Expr, name string) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return isPkgType(tv.Type, "hiddendb", name)
}

// ownKind classifies how a local came to own its storage.
type ownKind uint8

const (
	notOwned ownKind = iota
	// ownShallow: built from a composite literal, new or the zero value —
	// the value's immediate fields are owned, but slices assigned into it
	// may still alias shared backing arrays.
	ownShallow
	// ownDeep: obtained from Clone, whose contract is a deep copy — every
	// reachable element array is fresh.
	ownDeep
)

// ownedVars computes the function's owned locals and how deeply each one
// owns its storage.
func ownedVars(info *types.Info, body *ast.BlockStmt) map[types.Object]ownKind {
	owned := make(map[types.Object]ownKind)
	poisoned := make(map[types.Object]bool)
	mark := func(id *ast.Ident, kind ownKind) {
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		if kind != notOwned && !poisoned[obj] {
			// Repeated owning assignments keep the weakest kind.
			if prev, ok := owned[obj]; !ok || kind < prev {
				owned[obj] = kind
			}
		} else {
			poisoned[obj] = true
			delete(owned, obj)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i, lhs := range x.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						mark(id, owningExpr(x.Rhs[i]))
					}
				}
			} else {
				// Multi-value from a call: nothing on the left is owned.
				for _, lhs := range x.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						mark(id, notOwned)
					}
				}
			}
		case *ast.ValueSpec:
			if len(x.Values) == 0 {
				// var t Tuple: the zero value is owned storage.
				for _, id := range x.Names {
					mark(id, ownShallow)
				}
			} else if len(x.Values) == len(x.Names) {
				for i, id := range x.Names {
					mark(id, owningExpr(x.Values[i]))
				}
			} else {
				for _, id := range x.Names {
					mark(id, notOwned)
				}
			}
		case *ast.RangeStmt:
			// Range copies still alias element backing storage.
			for _, e := range []ast.Expr{x.Key, x.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					mark(id, notOwned)
				}
			}
		}
		return true
	})
	return owned
}

// owningExpr classifies whether e yields freshly constructed storage.
func owningExpr(e ast.Expr) ownKind {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return owningExpr(x.X)
	case *ast.CompositeLit:
		return ownShallow
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if _, lit := x.X.(*ast.CompositeLit); lit {
				return ownShallow
			}
		}
	case *ast.CallExpr:
		switch fn := x.Fun.(type) {
		case *ast.Ident:
			if fn.Name == "new" {
				return ownShallow
			}
		case *ast.SelectorExpr:
			if fn.Sel.Name == "Clone" {
				return ownDeep
			}
		}
	}
	return notOwned
}

// rootIdent strips selectors, indexes, derefs and parens down to the
// chain's base identifier, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func runResultImmut(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			owned := ownedVars(pass.Info, fd.Body)
			rootKind := func(e ast.Expr) (ownKind, types.Object) {
				id := rootIdent(e)
				if id == nil {
					return notOwned, nil
				}
				obj := pass.Info.Uses[id]
				if obj == nil {
					obj = pass.Info.Defs[id]
				}
				if obj == nil {
					return notOwned, nil
				}
				return owned[obj], obj
			}
			rootOwned := func(e ast.Expr) bool {
				k, _ := rootKind(e)
				return k != notOwned
			}
			checkLValue := func(lhs ast.Expr) {
				switch x := lhs.(type) {
				case *ast.SelectorExpr:
					// X.Field = ...
					if isResult(pass.Info, x.X) || isTuple(pass.Info, x.X) {
						if !rootOwned(x.X) {
							pass.Reportf(x.Sel.Pos(),
								"write to field %s of a shared hiddendb value; Results and Tuples are immutable by convention — Clone before mutating",
								x.Sel.Name)
						}
					}
				case *ast.IndexExpr:
					// X[i] = ...: writes into Vals/Nums element storage need
					// tuple-level ownership; writes into a Result's Tuples
					// need result-level ownership.
					sel, ok := x.X.(*ast.SelectorExpr)
					if !ok {
						return
					}
					switch sel.Sel.Name {
					case "Vals", "Nums":
						if !isTuple(pass.Info, sel.X) {
							return
						}
						kind, obj := rootKind(sel.X)
						ok := false
						switch {
						case kind == ownDeep:
							// Clone is a deep copy: element arrays are fresh
							// however deep the chain.
							ok = true
						case kind == ownShallow:
							// A shallowly built Result routinely shares its
							// tuples' backing arrays (db.Execute copies tuple
							// structs out of the immutable table); only a
							// Tuple built locally owns its own arrays.
							v, isVar := obj.(*types.Var)
							ok = isVar && isPkgType(v.Type(), "hiddendb", "Tuple")
						}
						if !ok {
							pass.Reportf(x.Pos(),
								"write into %s element storage of a tuple that may be shared; Clone the tuple first",
								sel.Sel.Name)
						}
					case "Tuples":
						if isResult(pass.Info, sel.X) && !rootOwned(sel.X) {
							pass.Reportf(x.Pos(),
								"write into Tuples storage of a shared hiddendb.Result; Clone the result first")
						}
					}
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						checkLValue(lhs)
					}
				case *ast.IncDecStmt:
					checkLValue(x.X)
				}
				return true
			})
		}
	}
}
