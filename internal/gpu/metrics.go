package gpu

// Metrics is a point-in-time snapshot of device utilization since device
// creation.
type Metrics struct {
	IssueUtil     float64 // fraction of issue slots busy, device-wide
	AvgOccupancy  float64 // mean resident warps / total warp capacity
	ResidentWarps int     //pagoda:allow unused instantaneous; TestMetricsOccupancy's leak check and pagoda's TestCustomDeviceGeometry (the MasterKernel holds every warp) read it
}

// Metrics gathers a utilization snapshot across all SMMs. It only reads
// state, so sampling it mid-run leaves the simulation bit-identical.
func (d *Device) Metrics() Metrics {
	now := d.Eng.Now()
	elapsed := now - d.createdAt
	var m Metrics
	if elapsed <= 0 {
		return m
	}
	var busy, warpInt float64
	for _, s := range d.SMMs {
		busy += s.issue.Integrals()
		warpInt += s.warpIntegral + float64(s.residentWarps)*(now-s.lastWarpUpd)
		m.ResidentWarps += s.residentWarps
	}
	totalIssue := d.Cfg.IssueWidth * elapsed * float64(d.Cfg.NumSMMs)
	m.IssueUtil = busy / totalIssue
	m.AvgOccupancy = warpInt / (elapsed * float64(d.Cfg.TotalWarps()))
	return m
}
