package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
)

// ReplicationFeed fetches one feed page from the server's replication
// journal: records from LSN `from` onwards, or a full snapshot when the
// cursor predates the server's tail (from=0 forces one). The raw page
// bytes are returned ready for store.ApplyFeed — the client never decodes
// them, so the store owns the wire format end to end. Pages are sized by
// the server's default limit.
func (c *Client) ReplicationFeed(ctx context.Context, from int64) ([]byte, error) {
	path := fmt.Sprintf("/v1/replication/journal?from=%d", from)
	var page json.RawMessage
	if err := c.do(ctx, http.MethodGet, path, nil, &page); err != nil {
		return nil, err
	}
	return page, nil
}

// ReplicationStatus fetches the node's role, epoch, LSN and tail lag.
func (c *Client) ReplicationStatus(ctx context.Context) (ReplicationStatus, error) {
	var st ReplicationStatus
	err := c.do(ctx, http.MethodGet, "/v1/replication/status", nil, &st)
	return st, err
}

// Promote asks a standby to become primary (idempotent: a node that is
// already primary reports its current epoch).
func (c *Client) Promote(ctx context.Context) (PromoteResult, error) {
	var res PromoteResult
	err := c.do(ctx, http.MethodPost, "/v1/replication/promote", nil, &res)
	return res, err
}

// Demote asks a node to step down to a standby tailing the given primary,
// discarding any divergent local tail in favour of a full re-sync.
func (c *Client) Demote(ctx context.Context, follow string) (ReplicationStatus, error) {
	var st ReplicationStatus
	err := c.do(ctx, http.MethodPost, "/v1/replication/demote",
		map[string]string{"follow": follow}, &st)
	return st, err
}
