package delphi

import (
	"privinf/internal/obs"
)

// Client-side metric names on the process-wide obs registry. The serving
// engine publishes the server-side phase histograms (internal/serve);
// these are the mirror image a client process exposes — the latency the
// paper's end-to-end characterization attributes to each protocol phase
// as the client experiences it. Names are package-level constants
// registered exactly once (obsreg analyzer).
const (
	metricClientOfflineHESeconds     = "pi_client_offline_he_seconds"
	metricClientOfflineGarbleSeconds = "pi_client_offline_garble_seconds"
	metricClientOfflineOTSeconds     = "pi_client_offline_ot_seconds"
	metricClientOfflineSeconds       = "pi_client_offline_seconds"
	metricClientOnlineSeconds        = "pi_client_online_seconds"
	metricClientOnlineLayerSeconds   = "pi_client_online_layer_seconds"
)

var (
	obsClientOfflineHE     = obs.Default().Histogram(metricClientOfflineHESeconds, "Client offline HE leg: mask encryption, upload, share decryption.")
	obsClientOfflineGarble = obs.Default().Histogram(metricClientOfflineGarbleSeconds, "Client offline GC leg: garbling (Client-Garbler) or receiving and storing circuits (Server-Garbler).")
	obsClientOfflineOT     = obs.Default().Histogram(metricClientOfflineOTSeconds, "Client offline label-OT leg: the b and r labels (Server-Garbler) or the a labels' random OTs (Client-Garbler).")
	obsClientOffline       = obs.Default().Histogram(metricClientOfflineSeconds, "Client offline phase, end to end, per pre-compute.")
	obsClientOnline        = obs.Default().Histogram(metricClientOnlineSeconds, "Client online inference, end to end.")
	obsClientOnlineLayer   = obs.Default().Histogram(metricClientOnlineLayerSeconds, "One ReLU layer of the client's online phase (GC evaluation, or the a labels' OT derandomization).")
)

// recordClientOffline mirrors a finished offline report onto the obs
// histograms.
func recordClientOffline(rep OfflineReport) {
	if !obs.Enabled() {
		return
	}
	obsClientOfflineHE.Record(rep.HEDuration)
	obsClientOfflineGarble.Record(rep.GCDuration)
	obsClientOfflineOT.Record(rep.OTDuration)
	obsClientOffline.Record(rep.Duration)
}
