package obs

import (
	"io"
	"log/slog"
	"os"
	"sync/atomic"
)

// baseLogger is the process-wide structured logger, atomic so a test can
// redirect it while other goroutines log.
var baseLogger atomic.Pointer[slog.Logger]

func init() {
	baseLogger.Store(slog.New(slog.NewTextHandler(os.Stderr, nil)))
}

// Logger returns the shared structured logger tagged with a component
// attribute ("server", "train", ...), so one log stream interleaves all
// subsystems distinguishably.
func Logger(component string) *slog.Logger {
	return baseLogger.Load().With(slog.String("component", component))
}

// NewLogger builds a text-handler logger writing to w at the given level.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// NopLogger returns a logger that discards everything — for tests and for
// callers that want instrumentation without log output.
func NopLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
}
