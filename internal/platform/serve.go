package platform

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// shutdownGrace is how long Serve lets the requests in flight finish once
// the process has been told to stop.
const shutdownGrace = 10 * time.Second

// Serve runs hs on ln until the process is told to stop (SIGINT, SIGTERM).
// It then stops accepting, gives the requests in flight shutdownGrace to
// finish, and ends the upgraded connections — which http.Server.Shutdown
// never sees — by calling each closeStreams (Server.CloseStreams and its
// kind). The error is why serving ended, nil when it was told to.
func Serve(hs *http.Server, ln net.Listener, closeStreams ...func()) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := hs.Shutdown(grace)
	for _, closeAll := range closeStreams {
		closeAll()
	}
	if serveErr := <-served; err == nil && !errors.Is(serveErr, http.ErrServerClosed) {
		err = serveErr
	}
	return err
}
