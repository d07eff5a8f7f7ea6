package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
)

// FetchTargetInfo stamps a report with the identity of the server under
// test: build_info and uptime_seconds from GET /metrics, and the node
// count from GET /v1/cluster when clustering is on. Only the routable
// members of the gossip view (alive, suspect, draining) count toward the
// measured cluster size — a dead or departed record is provenance of the
// past, not capacity. Errors on the cluster probe are not fatal (a single
// node 404s there by design).
func FetchTargetInfo(ctx context.Context, client *http.Client, base string) (TargetInfo, error) {
	if client == nil {
		client = http.DefaultClient
	}
	info := TargetInfo{URL: base, Nodes: 1}
	var metrics struct {
		Uptime float64        `json:"uptime_seconds"`
		Build  map[string]any `json:"build_info"`
		CAS    *struct {
			SegmentBytes int64 `json:"segment_bytes"`
			MaxBytes     int64 `json:"max_bytes"`
		} `json:"cas"`
	}
	if err := getInto(ctx, client, base+"/metrics", &metrics); err != nil {
		return info, fmt.Errorf("loadgen: reading %s/metrics: %w", base, err)
	}
	info.UptimeSeconds = metrics.Uptime
	info.Build = metrics.Build
	// Store provenance: a cas block carrying geometry means a disk tier
	// is attached (RAM-only pools emit cas counters but no segment
	// layout). The store mode changes what a hit costs, so it belongs
	// next to the build stamp.
	info.StoreMode = "ram"
	if metrics.CAS != nil && metrics.CAS.SegmentBytes > 0 {
		info.StoreMode = "disk"
		info.StoreSegmentBytes = metrics.CAS.SegmentBytes
		info.StoreMaxBytes = metrics.CAS.MaxBytes
	}
	var cluster struct {
		Members []struct {
			State string `json:"state"`
		} `json:"members"`
	}
	if err := getInto(ctx, client, base+"/v1/cluster", &cluster); err == nil {
		n := 0
		for _, m := range cluster.Members {
			switch m.State {
			case "alive", "suspect", "draining":
				n++
			}
		}
		if n > 0 {
			info.Nodes = n
		}
	}
	return info, nil
}

func getInto(ctx context.Context, client *http.Client, url string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}
