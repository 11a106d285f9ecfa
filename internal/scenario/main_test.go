package scenario

import (
	"os"
	"testing"

	"repro/internal/netsim"
	"repro/internal/wireless"
)

// TestMain runs the package's tests on classic links when NETSIM_FUSED=0
// and on the classic radio path when WIRELESS_FUSED=0, so the figure
// goldens prove every transmit path produces the published output.
func TestMain(m *testing.M) {
	if os.Getenv("NETSIM_FUSED") == "0" {
		netsim.SetFusedLinks(false)
	}
	if os.Getenv("WIRELESS_FUSED") == "0" {
		wireless.SetFusedAir(false)
	}
	os.Exit(m.Run())
}
