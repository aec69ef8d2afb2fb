package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"github.com/pombm/pombm/internal/geo"
)

// Instance CSV format: a header row, then one row per agent:
//
//	kind,x,y
//	worker,12.5,80.25
//	task,100.0,99.5
//
// Tasks appear in arrival order. This lets deployments bring their own
// data to the pipelines and the bench harness (pombm-bench gen writes the
// built-in generators to files, and pombm-bench instance runs a file).

// WriteCSV serialises the instance.
func (in *Instance) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kind", "x", "y"}); err != nil {
		return err
	}
	write := func(kind string, pts []geo.Point) error {
		for _, p := range pts {
			err := cw.Write([]string{
				kind,
				strconv.FormatFloat(p.X, 'g', -1, 64),
				strconv.FormatFloat(p.Y, 'g', -1, 64),
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := write("worker", in.Workers); err != nil {
		return err
	}
	if err := write("task", in.Tasks); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses an instance. The region is inferred as the bounding box of
// all agents expanded by 5% (so boundary agents do not sit exactly on the
// region edge), unless every point fits the standard synthetic region, in
// which case that region is kept for comparability.
func ReadCSV(r io.Reader) (*Instance, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: reading header: %w", err)
	}
	if header[0] != "kind" || header[1] != "x" || header[2] != "y" {
		return nil, fmt.Errorf("workload: unexpected header %v", header)
	}
	in := &Instance{}
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", line, err)
		}
		x, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: bad x %q", line, rec[1])
		}
		y, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: bad y %q", line, rec[2])
		}
		p := geo.Pt(x, y)
		if !p.IsFinite() {
			return nil, fmt.Errorf("workload: line %d: non-finite point", line)
		}
		switch rec[0] {
		case "worker":
			in.Workers = append(in.Workers, p)
		case "task":
			in.Tasks = append(in.Tasks, p)
		default:
			return nil, fmt.Errorf("workload: line %d: unknown kind %q", line, rec[0])
		}
	}
	if len(in.Workers) == 0 && len(in.Tasks) == 0 {
		return nil, fmt.Errorf("workload: file contains no agents")
	}
	in.Region = inferRegion(append(append([]geo.Point{}, in.Workers...), in.Tasks...))
	return in, nil
}

func inferRegion(pts []geo.Point) geo.Rect {
	std := SyntheticRegion
	allInside := true
	minX, minY := pts[0].X, pts[0].Y
	maxX, maxY := pts[0].X, pts[0].Y
	for _, p := range pts {
		if !std.Contains(p) {
			allInside = false
		}
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	if allInside {
		return std
	}
	padX := (maxX - minX) * 0.05
	padY := (maxY - minY) * 0.05
	if padX == 0 {
		padX = 1
	}
	if padY == 0 {
		padY = 1
	}
	return geo.NewRect(geo.Pt(minX-padX, minY-padY), geo.Pt(maxX+padX, maxY+padY))
}
