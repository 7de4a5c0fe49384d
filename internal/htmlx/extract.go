package htmlx

import "strings"

// Form is an extracted <form> element with the controls a conjunctive web
// interface exposes: drop-down selects (one per searchable attribute) and
// plain inputs.
type Form struct {
	// Action is the form's submission URL (may be relative) and Method the
	// uppercase HTTP method, defaulting to GET as browsers do.
	Action, Method, Name string
	Selects              []Select
	Inputs               []Input
}

// Select is a <select> control and its option domain.
type Select struct {
	Name     string
	Multiple bool
	Options  []Option
}

// Option is one <option>: the submitted value and the human label.
type Option struct {
	Value, Label string
	Selected     bool
}

// Input is a non-select form control.
type Input struct {
	Name, Type, Value string
}

// ExtractForms returns every form in the tree with its controls, in
// document order. A control belongs to its nearest enclosing form and an
// option, with the text inside it, to its nearest enclosing select, so
// one walk extracts every form in time linear in the page.
func ExtractForms(root *Node) []Form {
	var forms []Form
	// walk visits n inside forms[form].Selects[sel] (-1: none), adding text
	// to label; children may append controls, so an option is held by index.
	var walk func(n *Node, form, sel int, label *strings.Builder)
	walk = func(n *Node, form, sel int, label *strings.Builder) {
		switch {
		case n.IsText():
			if label != nil {
				label.WriteString(n.Text)
				label.WriteByte(' ')
			}
			return
		case n.Tag == "form":
			forms = append(forms, Form{
				Action: n.AttrOr("action", ""),
				Method: strings.ToUpper(n.AttrOr("method", "GET")),
				Name:   n.AttrOr("name", n.AttrOr("id", "")),
			})
			form, sel, label = len(forms)-1, -1, nil
		case n.Tag == "select" && form >= 0:
			s := Select{Name: n.AttrOr("name", "")}
			_, s.Multiple = n.Attr("multiple")
			forms[form].Selects = append(forms[form].Selects, s)
			sel, label = len(forms[form].Selects)-1, nil
		case n.Tag == "option" && sel >= 0:
			opts := &forms[form].Selects[sel].Options
			_, selected := n.Attr("selected")
			*opts = append(*opts, Option{Selected: selected})
			i, text := len(*opts)-1, &strings.Builder{}
			for _, c := range n.Children {
				walk(c, form, sel, text)
			}
			o := &forms[form].Selects[sel].Options[i]
			o.Label = strings.Join(strings.Fields(text.String()), " ")
			o.Value = n.AttrOr("value", o.Label)
			return
		case n.Tag == "input" && form >= 0:
			forms[form].Inputs = append(forms[form].Inputs, Input{
				Name:  n.AttrOr("name", ""),
				Type:  strings.ToLower(n.AttrOr("type", "text")),
				Value: n.AttrOr("value", ""),
			})
		}
		for _, c := range n.Children {
			walk(c, form, sel, label)
		}
	}
	walk(root, -1, -1, nil)
	return forms
}

// FormByName returns the form whose name or action contains name, or the
// first form when name is empty; nil when nothing matches.
func FormByName(root *Node, name string) *Form {
	forms := ExtractForms(root)
	if len(forms) == 0 {
		return nil
	}
	if name == "" {
		return &forms[0]
	}
	for i := range forms {
		if forms[i].Name == name || strings.Contains(forms[i].Action, name) {
			return &forms[i]
		}
	}
	return nil
}

// SelectByName returns the named select control, or nil.
func (f *Form) SelectByName(name string) *Select {
	for i := range f.Selects {
		if f.Selects[i].Name == name {
			return &f.Selects[i]
		}
	}
	return nil
}

// Table is an extracted <table>: its id attribute, the header row (th
// texts) and the body rows.
type Table struct {
	ID     string
	Header []string
	Rows   [][]Cell
}

// Cell is one td/th with its visible text and raw attributes (sites often
// stash machine-readable values in data-* attributes).
type Cell struct {
	Text  string
	Attrs []Attr
}

// Attr returns the named cell attribute and whether it exists.
func (c *Cell) Attr(key string) (string, bool) {
	for _, a := range c.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// ExtractTables returns every table in the tree. A row consisting solely of
// <th> cells is treated as the header; all other rows land in Rows.
func ExtractTables(root *Node) []Table {
	var tables []Table
	for _, tn := range root.ByTag("table") {
		t := Table{ID: tn.AttrOr("id", "")}
		for _, tr := range tn.ByTag("tr") {
			if nearestTable(tr) != tn {
				continue // row belongs to a nested table
			}
			var cells []Cell
			allHeader := true
			for _, c := range tr.Children {
				if c.Tag != "td" && c.Tag != "th" {
					continue
				}
				if c.Tag != "th" {
					allHeader = false
				}
				cells = append(cells, Cell{Text: c.TextContent(), Attrs: c.Attrs})
			}
			if len(cells) == 0 {
				continue
			}
			if allHeader && t.Header == nil && len(t.Rows) == 0 {
				for _, c := range cells {
					t.Header = append(t.Header, c.Text)
				}
				continue
			}
			t.Rows = append(t.Rows, cells)
		}
		tables = append(tables, t)
	}
	return tables
}

// nearestTable walks up to the closest enclosing table element.
func nearestTable(n *Node) *Node {
	for p := n.Parent; p != nil; p = p.Parent {
		if p.Tag == "table" {
			return p
		}
	}
	return nil
}

// TableByID returns the table with the given id, or nil.
func TableByID(root *Node, id string) *Table {
	tables := ExtractTables(root)
	for i := range tables {
		if tables[i].ID == id {
			return &tables[i]
		}
	}
	return nil
}
