// Package tracelog is the fleet's dependency-free observability kit:
// a leveled structured logger (JSON or logfmt-style text), a per-job
// trace timeline with monotonic span IDs, W3C traceparent propagation,
// and an HTTP middleware that stamps request IDs and trace context on
// every request. The store persists timelines as opaque JSON alongside
// the job record, so traces survive crash recovery and ride the
// replication feed to standbys; tracelog owns the format so no other
// package has to parse it.
package tracelog

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Level orders log severities. Records below the logger's configured
// level are discarded before formatting.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the lowercase level name used in log output and flags.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "level(" + strconv.Itoa(int(l)) + ")"
	}
}

// ParseLevel maps a flag value ("debug", "info", "warn", "error") to its
// Level, case-insensitively.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("tracelog: unknown log level %q (want debug, info, warn or error)", s)
}

// Format selects the line encoding of a Logger.
type Format int

const (
	// FormatText renders "2006-01-02T15:04:05.000Z INFO  msg key=value ...".
	FormatText Format = iota
	// FormatJSON renders one JSON object per line:
	// {"ts":"...","level":"info","msg":"...","key":value,...}.
	FormatJSON
)

// ParseFormat maps a flag value ("text", "json") to its Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "text":
		return FormatText, nil
	case "json":
		return FormatJSON, nil
	}
	return FormatText, fmt.Errorf("tracelog: unknown log format %q (want text or json)", s)
}

// Attr is one structured key/value pair on a log record.
type Attr struct {
	Key   string
	Value any
}

// A is shorthand for constructing an Attr at a call site.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Logger writes leveled structured records to a single writer, one whole
// line per record. A nil *Logger is a valid no-op, so every component can
// log unconditionally.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level Level
	fmt   Format
}

// New returns a Logger writing records at or above level to w in the
// given format.
func New(w io.Writer, level Level, format Format) *Logger {
	return &Logger{w: w, level: level, fmt: format}
}

// Enabled reports whether records at level would be written.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.level
}

// Info logs a record at LevelInfo.
func (l *Logger) Info(msg string, attrs ...Attr) { l.log(LevelInfo, msg, attrs) }

// Warn logs a record at LevelWarn.
func (l *Logger) Warn(msg string, attrs ...Attr) { l.log(LevelWarn, msg, attrs) }

// Error logs a record at LevelError.
func (l *Logger) Error(msg string, attrs ...Attr) { l.log(LevelError, msg, attrs) }

func (l *Logger) log(level Level, msg string, attrs []Attr) {
	if !l.Enabled(level) {
		return
	}
	ts := time.Now().UTC()
	var buf []byte
	if l.fmt == FormatJSON {
		buf = appendJSONRecord(buf, ts, level, msg, attrs)
	} else {
		buf = appendTextRecord(buf, ts, level, msg, attrs)
	}
	buf = append(buf, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Write(buf)
}

func appendJSONRecord(buf []byte, ts time.Time, level Level, msg string, attrs []Attr) []byte {
	buf = append(buf, `{"ts":`...)
	buf = appendJSONValue(buf, ts.Format(time.RFC3339Nano))
	buf = append(buf, `,"level":`...)
	buf = appendJSONValue(buf, level.String())
	buf = append(buf, `,"msg":`...)
	buf = appendJSONValue(buf, msg)
	for _, a := range attrs {
		buf = appendJSONAttr(buf, a)
	}
	return append(buf, '}')
}

func appendJSONAttr(buf []byte, a Attr) []byte {
	buf = append(buf, ',')
	buf = appendJSONValue(buf, a.Key)
	buf = append(buf, ':')
	return appendJSONValue(buf, a.Value)
}

func appendJSONValue(buf []byte, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(fmt.Sprint(v))
	}
	return append(buf, b...)
}

func appendTextRecord(buf []byte, ts time.Time, level Level, msg string, attrs []Attr) []byte {
	buf = ts.AppendFormat(buf, "2006-01-02T15:04:05.000Z")
	buf = append(buf, ' ')
	lv := strings.ToUpper(level.String())
	buf = append(buf, lv...)
	for i := len(lv); i < 5; i++ {
		buf = append(buf, ' ')
	}
	buf = append(buf, ' ')
	buf = appendTextToken(buf, msg)
	for _, a := range attrs {
		buf = appendTextAttr(buf, a)
	}
	return buf
}

func appendTextAttr(buf []byte, a Attr) []byte {
	buf = append(buf, ' ')
	buf = append(buf, a.Key...)
	buf = append(buf, '=')
	return appendTextToken(buf, fmt.Sprint(a.Value))
}

// appendTextToken quotes a value only when it contains whitespace or
// quotes, keeping the common case grep-friendly.
func appendTextToken(buf []byte, s string) []byte {
	if strings.ContainsAny(s, " \t\n\"=") {
		return strconv.AppendQuote(buf, s)
	}
	return append(buf, s...)
}
