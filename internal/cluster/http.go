package cluster

import (
	"net/http"

	"github.com/levelarray/levelarray/internal/server"
)

// maxBodyBytes bounds request bodies. Membership tables are the largest
// payload: a few hundred bytes per member plus one integer per partition.
const maxBodyBytes = 1 << 20

// decode, writeJSON and writeError delegate to the server package's exported
// JSON plumbing so both layers share one body-cap and error-shape policy.
func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	return server.DecodeJSON(w, r, dst, maxBodyBytes)
}

func writeJSON(w http.ResponseWriter, status int, body any) { server.WriteJSON(w, status, body) }

func writeError(w http.ResponseWriter, status int, code string) { server.WriteError(w, status, code) }
