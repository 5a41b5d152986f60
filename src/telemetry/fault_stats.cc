#include "telemetry/fault_stats.h"

#include <cinttypes>
#include <cstdio>

namespace prorp::telemetry {

std::string RobustnessReport::ToString() const {
  char buf[640];
  std::snprintf(buf, sizeof(buf),
                "outages=%" PRIu64 " (%.1fh) fail_outage=%" PRIu64
                " fail_injected=%" PRIu64 " degraded=%" PRIu64 "/%" PRIu64
                " hist_err=%" PRIu64 " corrupt=%" PRIu64 " detected=%" PRIu64
                " repaired=%" PRIu64 " quarantined=%" PRIu64
                " scrubs=%" PRIu64 " scrub_pages=%" PRIu64
                " scrub_err=%" PRIu64 " node_crashes=%" PRIu64
                " node_deaths=%" PRIu64 " rejoins=%" PRIu64
                " failover_requeues=%" PRIu64 " failover_deduped=%" PRIu64
                " node_down_refusals=%" PRIu64 " outage_waits=%" PRIu64
                " (%" PRIu64 "s) failover_waits=%" PRIu64 " (%" PRIu64 "s)",
                outage_windows,
                static_cast<double>(outage_seconds) / 3600.0,
                resume_failures_outage, resume_failures_injected,
                degraded_enters, degraded_exits, history_errors,
                corruption_errors, corruption_detected, corruption_repaired,
                corruption_quarantined, scrub_passes, scrub_pages,
                scrub_errors, node_crash_windows, node_deaths, node_rejoins,
                failover_requeues, failover_deduped,
                resume_failures_node_down, outage_waited_logins,
                outage_wait_seconds, failover_waited_logins,
                failover_wait_seconds);
  return buf;
}

}  // namespace prorp::telemetry
