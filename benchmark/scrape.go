package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// sample is one line of a Prometheus text scrape.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is a parsed GET /metrics body. The benchmark reads the daemons'
// counters exactly as an operator's scraper would: over HTTP, as text.
type scrape []sample

// parseMetrics parses the Prometheus text exposition format (0.0.4) as the
// daemons emit it: "name{k="v",...} value" lines, # comments skipped.
func parseMetrics(text string) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s := sample{labels: map[string]string{}}
		rest := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			s.name = line[:i]
			end, err := parseLabels(line[i+1:], s.labels)
			if err != nil {
				return nil, fmt.Errorf("metrics line %q: %w", line, err)
			}
			rest = line[i+1+end:]
		} else {
			j := strings.IndexByte(line, ' ')
			if j < 0 {
				return nil, fmt.Errorf("metrics line %q: no value", line)
			}
			s.name, rest = line[:j], line[j:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s.value = v
		out = append(out, s)
	}
	return out, sc.Err()
}

// parseLabels reads `k="v",k2="v2"}` into labels and returns the offset just
// past the closing brace. Values may hold escaped quotes, backslashes and
// newlines.
func parseLabels(s string, labels map[string]string) (int, error) {
	i := 0
	for {
		if i < len(s) && s[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 || i+eq+1 >= len(s) || s[i+eq+1] != '"' {
			return 0, fmt.Errorf("malformed label set")
		}
		key := s[i : i+eq]
		j := i + eq + 2
		var val strings.Builder
		for ; j < len(s) && s[j] != '"'; j++ {
			if s[j] == '\\' && j+1 < len(s) {
				j++
				if s[j] == 'n' {
					val.WriteByte('\n')
					continue
				}
			}
			val.WriteByte(s[j])
		}
		if j >= len(s) {
			return 0, fmt.Errorf("unterminated label value")
		}
		labels[key] = val.String()
		i = j + 1
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

// sum adds every sample of one family whose labels include all of want
// ("k=v" pairs). A family that is absent sums to 0, which is also what a
// counter that never moved reads.
func (sc scrape) sum(name string, want ...string) float64 {
	total := 0.0
next:
	for _, s := range sc {
		if s.name != name {
			continue
		}
		for _, kv := range want {
			k, v, _ := strings.Cut(kv, "=")
			if s.labels[k] != v {
				continue next
			}
		}
		total += s.value
	}
	return total
}

// delta is after−before for one family: how much a counter moved over the
// window.
func delta(before, after scrape, name string, want ...string) float64 {
	return after.sum(name, want...) - before.sum(name, want...)
}

// clockTicksPerSec is USER_HZ, fixed at 100 on every Linux ABI Go supports.
const clockTicksPerSec = 100

// parseProcStat extracts user+system CPU time in milliseconds from the text
// of /proc/<pid>/stat. The command name (field 2) may itself hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(text string) (cpuMs float64, err error) {
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", text)
	}
	fields := strings.Fields(text[i+1:])
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want >= 13", len(fields))
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", fields[11], fields[12])
	}
	return float64(utime+stime) * 1000 / clockTicksPerSec, nil
}

// parseProcStatusHWM extracts VmHWM (peak resident set) in MB from the text
// of /proc/<pid>/status.
func parseProcStatusHWM(text string) (mb float64, err error) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// procCPUMs reads a process's cumulative user+system CPU in milliseconds.
func procCPUMs(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(data))
}

// procPeakRSSMB reads a process's peak resident set in MB.
func procPeakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatusHWM(string(data))
}
