package ctrl

import (
	"net/http"

	"flexric/internal/rest"
	"flexric/internal/server"
)

// SouthServer exposes a VirtCtrl's southbound server to tests.
func SouthServer(v *VirtCtrl) *server.Server { return v.srv }

// RelayAgents exposes the south agents a Relay's proxy has seen connect.
func RelayAgents(r *Relay) []server.AgentInfo { return r.proxy.Agents() }

// ProxyControl exposes a proxy's fire-and-forget control path.
func ProxyControl(p *Proxy, fnID uint16, payload []byte) error {
	return p.control(anyAgent, fnID, nil, payload)
}

// SlicingRoutes exposes the slicing northbound's routes and handler.
func SlicingRoutes(c *SlicingController) ([]rest.Route, http.Handler) {
	return c.routes(), c.http.Handler
}

// TCRoutes exposes the TC northbound's routes and handler.
func TCRoutes(c *TCController) ([]rest.Route, http.Handler) { return c.routes(), c.http.Handler }
