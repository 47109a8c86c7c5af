package workload

import (
	"fmt"

	"repro/internal/schema"
)

// Clients returns n deterministic per-client request streams for
// repository-server workloads (the MatchServe benchmarks and load
// tests): client i receives one full cycle through the five base
// schemas, phase-shifted by i so concurrent clients hit the server
// with different incoming schemas at any instant, each renamed
// "<Base>@c<i>" so no incoming schema collides with a stored candidate
// (a name collision would silently drop that candidate from the match)
// or with another client's traffic. Every schema is a fresh instance,
// like Candidates — analyzer caches see each client's incoming
// schemas as distinct, exactly as a server would.
func Clients(n int) [][]*schema.Schema {
	builders := []func() *schema.Schema{
		buildCIDX, buildExcel, buildNoris, buildParagon, buildApertum,
	}
	out := make([][]*schema.Schema, n)
	for i := range out {
		stream := make([]*schema.Schema, len(builders))
		for j := range stream {
			s := builders[(i+j)%len(builders)]()
			s.Name = fmt.Sprintf("%s@c%d", s.Name, i)
			stream[j] = s
		}
		out[i] = stream
	}
	return out
}
