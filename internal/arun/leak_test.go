package arun_test

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package's tests when they leave goroutines or
// open descriptors behind (see internal/leakcheck).
func TestMain(m *testing.M) { leakcheck.Main(m) }
