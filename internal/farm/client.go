package farm

import (
	"fmt"

	"hardsnap/internal/campaign"
)

// Client speaks the farm's line-JSON protocol. It is not safe for
// concurrent use; open one client per goroutine.
type Client struct{ conn *campaign.Conn }

// Dial connects to a farm server.
func Dial(addr string) (*Client, error) {
	conn, err := campaign.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Close drops the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip(req Request) (Response, error) {
	var resp Response
	if err := c.conn.RoundTrip(req, &resp); err != nil {
		return Response{}, err
	}
	if resp.Error != "" {
		return resp, fmt.Errorf("farm: %s", resp.Error)
	}
	return resp, nil
}

// Submit enqueues a job for the tenant and returns the job ID.
func (c *Client) Submit(tenant string, job campaign.Job) (string, error) {
	resp, err := c.roundTrip(Request{Op: "submit", Tenant: tenant, Job: &job})
	if err != nil {
		return "", err
	}
	return resp.ID, nil
}

// Results fetches a job's state including its full result.
func (c *Client) Results(id string) (JobInfo, error) {
	resp, err := c.roundTrip(Request{Op: "results", ID: id})
	if err != nil {
		return JobInfo{}, err
	}
	return *resp.Job, nil
}

// Cancel stops a queued or running job.
func (c *Client) Cancel(id string) error {
	_, err := c.roundTrip(Request{Op: "cancel", ID: id})
	return err
}

// Stream consumes the job's event feed, invoking fn per event, until
// the job reaches a terminal state. It consumes the connection: use
// a dedicated client.
func (c *Client) Stream(id string, fn func(campaign.Event)) error {
	if err := c.conn.Send(Request{Op: "stream", ID: id}); err != nil {
		return err
	}
	for {
		var resp Response
		if err := c.conn.Receive(&resp); err != nil {
			return err
		}
		if resp.Error != "" {
			return fmt.Errorf("farm: %s", resp.Error)
		}
		if resp.Done {
			return nil
		}
		if resp.Event != nil && fn != nil {
			fn(*resp.Event)
		}
	}
}
