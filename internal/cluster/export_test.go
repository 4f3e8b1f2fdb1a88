package cluster

// SetTraceCap shrinks a router's decision-trace cap.
func SetTraceCap(r *Router, n int) { r.traceCap = n }
