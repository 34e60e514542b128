package obs

import (
	_ "embed"
	"net/http"
)

// The control-room dashboard is a single self-contained HTML file —
// no build step, no external assets — compiled into the binary so the
// -obs flag is all an operator needs.
//
//go:embed ui/index.html
var dashboardHTML []byte

func handleDashboard(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write(dashboardHTML)
}
