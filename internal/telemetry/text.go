package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Family is one metric family in exposition order: a name, optional HELP
// and TYPE metadata, and its samples. Histogram families carry samples
// named <family>_bucket/_sum/_count.
type Family struct {
	Name    string
	Help    string
	Type    string // counter | gauge | histogram | "" (untyped)
	Samples []Sample
}

// Sample is one series line. Labels is the inner label string without
// braces (`a="b",c="d"`), empty when the series has no labels. Value is
// kept as the raw rendered string so merge/relabel round-trips exactly.
type Sample struct {
	Name   string
	Labels string
	Value  string
}

// WriteFamilies renders families in Prometheus text exposition format.
// Families and samples are emitted in the order given; Registry.Families
// and MergeFamilies already produce deterministic order.
func WriteFamilies(w io.Writer, fams []Family) error {
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if len(f.Samples) == 0 {
			continue
		}
		if f.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		if f.Type != "" {
			fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Type)
		}
		for _, s := range f.Samples {
			if s.Labels == "" {
				fmt.Fprintf(bw, "%s %s\n", s.Name, s.Value)
			} else {
				fmt.Fprintf(bw, "%s{%s} %s\n", s.Name, s.Labels, s.Value)
			}
		}
	}
	return bw.Flush()
}

// ParseText parses Prometheus text exposition data back into families.
// It is tolerant: malformed lines are skipped, unknown metadata is
// ignored, and samples whose family was never announced get an untyped
// family of their own. Used by the router to re-aggregate per-shard
// scrapes; it only needs to round-trip what WriteFamilies emits.
func ParseText(data []byte) []Family {
	var (
		order []string
		byN   = make(map[string]*Family)
	)
	fam := func(name string) *Family {
		if f, ok := byN[name]; ok {
			return f
		}
		f := &Family{Name: name}
		byN[name] = f
		order = append(order, name)
		return f
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 {
				continue
			}
			switch fields[1] {
			case "HELP":
				f := fam(fields[2])
				if len(fields) == 4 && f.Help == "" {
					f.Help = helpUnescaper.Replace(fields[3])
				}
			case "TYPE":
				// First announcement wins, as for HELP: samples already
				// filed under a histogram must not be orphaned by a retype.
				if f := fam(fields[2]); len(fields) == 4 && f.Type == "" {
					f.Type = fields[3]
				}
			}
			continue
		}
		name, labels, value, ok := parseSample(line)
		if !ok {
			continue
		}
		f, ok := byN[name]
		if !ok {
			// Histogram samples belong to the family minus the suffix.
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, found := strings.CutSuffix(name, suffix); found {
					if bf, have := byN[base]; have && bf.Type == "histogram" {
						f = bf
						break
					}
				}
			}
		}
		if f == nil {
			f = fam(name)
		}
		f.Samples = append(f.Samples, Sample{Name: name, Labels: labels, Value: value})
	}
	out := make([]Family, 0, len(order))
	for _, name := range order {
		out = append(out, *byN[name])
	}
	return out
}

// parseSample splits `name{labels} value` or `name value`. The label
// block is kept verbatim; a quote-aware scan finds its closing brace so
// escaped quotes and braces inside label values survive.
func parseSample(line string) (name, labels, value string, ok bool) {
	// A brace after the first space belongs to the value, not to a label
	// block.
	if i := strings.IndexByte(line, '{'); i >= 0 && !strings.Contains(line[:i], " ") {
		name = line[:i]
		rest := line[i+1:]
		end := closingBrace(rest)
		if end < 0 {
			return "", "", "", false
		}
		labels = rest[:end]
		value = strings.TrimSpace(rest[end+1:])
	} else {
		var found bool
		name, value, found = strings.Cut(line, " ")
		if !found {
			return "", "", "", false
		}
		value = strings.TrimSpace(value)
	}
	// Timestamps (a second field after the value) are not emitted by
	// this package; drop one if present.
	if f := strings.Fields(value); len(f) > 1 {
		value = f[0]
	}
	if name == "" || value == "" {
		return "", "", "", false
	}
	return name, labels, value, true
}

func closingBrace(s string) int {
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				return i
			}
		}
	}
	return -1
}

// AddLabels prepends the given labels to every sample of every family,
// in place. The router uses this to relabel per-shard scrapes
// (shard="2",role="active") before merging, mirroring the list-merge
// pattern: each backend keeps its identity inside the aggregate.
func AddLabels(fams []Family, labels ...Label) {
	rendered := renderLabels(labels)
	if rendered == "" {
		return
	}
	for fi := range fams {
		for si := range fams[fi].Samples {
			s := &fams[fi].Samples[si]
			if s.Labels == "" {
				s.Labels = rendered
			} else {
				s.Labels = rendered + "," + s.Labels
			}
		}
	}
}

// MergeFamilies combines several family sets into one, grouping samples
// by family name so HELP/TYPE headers appear once per family. Metadata
// comes from the first group that has it; output is sorted by family
// name, samples kept in group order (callers relabel first, so series
// stay distinct).
func MergeFamilies(groups ...[]Family) []Family {
	var (
		order []string
		byN   = make(map[string]*Family)
	)
	for _, group := range groups {
		for _, f := range group {
			m, ok := byN[f.Name]
			if !ok {
				cp := Family{Name: f.Name, Help: f.Help, Type: f.Type}
				byN[f.Name] = &cp
				order = append(order, f.Name)
				m = &cp
			}
			if m.Help == "" {
				m.Help = f.Help
			}
			if m.Type == "" {
				m.Type = f.Type
			}
			m.Samples = append(m.Samples, f.Samples...)
		}
	}
	sort.Strings(order)
	out := make([]Family, 0, len(order))
	for _, name := range order {
		out = append(out, *byN[name])
	}
	return out
}
