package wireless

import (
	"os"
	"testing"
)

// TestMain runs the package's tests on the classic radio path when
// WIRELESS_FUSED=0, so the suite proves both transmit paths.
func TestMain(m *testing.M) {
	if os.Getenv("WIRELESS_FUSED") == "0" {
		SetFusedAir(false)
	}
	os.Exit(m.Run())
}
