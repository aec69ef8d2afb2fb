package experiments

import (
	"fmt"
	"math"
	"strings"
)

// Render formats a figure as an aligned text table.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "y: %s\n", f.YLabel)

	headers := append([]string{f.XLabel}, labels(f.Series)...)
	rows := [][]string{headers}
	for i, x := range f.X {
		row := []string{x}
		for _, s := range f.Series {
			row = append(row, formatWithSpread(s, i))
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(headers))
	for _, row := range rows {
		for c, cell := range row {
			if len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for c, cell := range row {
			fmt.Fprintf(&b, "%-*s", widths[c]+3, cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV formats a figure as comma-separated values with a header row.
// Series with spreads add a "<label> std" column after their value column.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(f.XLabel))
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Label))
		if s.Spread != nil {
			b.WriteByte(',')
			b.WriteString(csvEscape(s.Label + " std"))
		}
	}
	b.WriteByte('\n')
	for i, x := range f.X {
		b.WriteString(csvEscape(x))
		for _, s := range f.Series {
			b.WriteByte(',')
			writeCSVValue(&b, valueAt(s, i))
			if s.Spread != nil {
				b.WriteByte(',')
				writeCSVValue(&b, spreadAt(s, i))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func writeCSVValue(b *strings.Builder, v float64) {
	if !math.IsNaN(v) {
		fmt.Fprintf(b, "%g", v)
	}
}

// Markdown formats a figure as a GitHub-flavoured markdown table
// (pombm-bench fig -format markdown).
func (f *Figure) Markdown() string {
	var b strings.Builder
	b.WriteString("| " + f.XLabel)
	for _, s := range f.Series {
		b.WriteString(" | " + s.Label)
	}
	b.WriteString(" |\n|")
	for i := 0; i <= len(f.Series); i++ {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for i, x := range f.X {
		b.WriteString("| " + x)
		for _, s := range f.Series {
			b.WriteString(" | " + formatWithSpread(s, i))
		}
		b.WriteString(" |\n")
	}
	return b.String()
}

func labels(series []Series) []string {
	out := make([]string, len(series))
	for i, s := range series {
		out[i] = s.Label
	}
	return out
}

func valueAt(s Series, i int) float64 {
	if i >= len(s.Values) {
		return math.NaN()
	}
	return s.Values[i]
}

func spreadAt(s Series, i int) float64 {
	if i >= len(s.Spread) {
		return math.NaN()
	}
	return s.Spread[i]
}

// formatWithSpread renders "value ±std" when a spread is recorded.
func formatWithSpread(s Series, i int) string {
	v := formatValue(valueAt(s, i))
	if s.Spread == nil {
		return v
	}
	sp := spreadAt(s, i)
	if math.IsNaN(sp) {
		return v
	}
	return v + " ±" + formatValue(sp)
}

func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e5 || math.Abs(v) < 1e-3:
		return fmt.Sprintf("%.3e", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
