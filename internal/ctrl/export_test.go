package ctrl

import "flexric/internal/server"

// SouthServer exposes a VirtCtrl's southbound server to tests.
func SouthServer(v *VirtCtrl) *server.Server { return v.srv }

// RelayAgents exposes the south agents a Relay's proxy has seen connect.
func RelayAgents(r *Relay) []server.AgentInfo { return r.proxy.Agents() }
