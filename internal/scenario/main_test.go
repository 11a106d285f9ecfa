package scenario

import (
	"os"
	"testing"

	"repro/internal/wireless"
)

// TestMain runs the package's tests on the classic radio path when
// WIRELESS_FUSED=0, so the figure goldens prove both radio transmit paths
// produce the published output.
func TestMain(m *testing.M) {
	if os.Getenv("WIRELESS_FUSED") == "0" {
		wireless.SetFusedAir(false)
	}
	os.Exit(m.Run())
}
