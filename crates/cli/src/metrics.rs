//! `--metrics-out` / `--metrics-interval` plumbing shared by `exec`,
//! `contend`, and `serve`.
//!
//! A command that opts in builds one [`StackMetrics`] bundle, threads it
//! through the metered entry points of the layer it drives, and on exit
//! writes a final export in the format the path's extension implies
//! (`.json` = pm-obs JSON, anything else = Prometheus text exposition).
//! While the command runs, [`MetricsArgs::live`] paints the throttled
//! status line on a TTY and, with `--metrics-interval`, drops numbered
//! periodic snapshot files next to the final export.

use std::io::IsTerminal;
use std::sync::Arc;
use std::time::Duration;

use pm_core::PmError;
use pm_metrics::StackMetrics;
use pm_obs::{render_metrics, LiveMetrics, LiveMetricsOptions, MetricsFormat};

use crate::args::Args;

/// Parsed metrics flags: the export path plus the snapshot cadence.
pub struct MetricsArgs {
    out: String,
    interval: Option<Duration>,
}

impl MetricsArgs {
    /// Reads `--metrics-out` / `--metrics-interval ms`. Absent
    /// `--metrics-out` means metrics stay compiled out (`Ok(None)`);
    /// `--metrics-interval` without it is a usage error.
    pub fn from_args(args: &Args) -> Result<Option<MetricsArgs>, PmError> {
        let interval_ms: u64 = args.get_parsed("metrics-interval", 0u64)?;
        let Some(out) = args.get("metrics-out") else {
            if args.get("metrics-interval").is_some() {
                return Err(PmError::Usage(
                    "--metrics-interval needs --metrics-out <path>".into(),
                ));
            }
            return Ok(None);
        };
        if args.get("metrics-interval").is_some() && interval_ms == 0 {
            return Err(PmError::Usage(
                "--metrics-interval must be a positive millisecond count".into(),
            ));
        }
        Ok(Some(MetricsArgs {
            out: out.to_string(),
            interval: (interval_ms > 0).then(|| Duration::from_millis(interval_ms)),
        }))
    }

    /// Spawns the live observer: a status line when stderr is a TTY,
    /// periodic snapshot files when `--metrics-interval` is set.
    #[must_use]
    pub fn live(&self, metrics: &Arc<StackMetrics>) -> LiveMetrics {
        LiveMetrics::start(
            Arc::clone(metrics),
            LiveMetricsOptions {
                status: std::io::stderr().is_terminal(),
                snapshot_base: self.interval.is_some().then(|| self.out.clone()),
                interval: self.interval,
            },
        )
    }

    /// Writes the final export in the format the path implies.
    pub fn write(&self, metrics: &StackMetrics) -> Result<(), PmError> {
        let path = &self.out;
        let text = render_metrics(&metrics.snapshot(), MetricsFormat::from_path(path));
        std::fs::write(path, text)
            .map_err(|e| PmError::io(format!("cannot write '{path}'"), e))?;
        println!("wrote metrics -> {path}");
        Ok(())
    }
}
