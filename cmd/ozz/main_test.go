package main

import (
	"strings"
	"testing"
	"time"

	"ozz/internal/obs"
)

// TestMetricsLineMigrations: the -v closing line ends with the registry's
// ozz_sched_migrations_total, which CI's migration smoke reads from the
// log once the campaign has exited.
func TestMetricsLineMigrations(t *testing.T) {
	reg := obs.NewRegistry()
	if line := metricsLine(reg, 10, 2, time.Second); !strings.HasSuffix(line, ", migrations 0") {
		t.Fatalf("metrics line %q does not end with the zero migration count", line)
	}
	reg.Counter("ozz_sched_migrations_total", "").Add(3)
	if line := metricsLine(reg, 10, 2, time.Second); !strings.HasSuffix(line, ", migrations 3") {
		t.Fatalf("metrics line %q does not end with the registry's 3 migrations", line)
	}
}
