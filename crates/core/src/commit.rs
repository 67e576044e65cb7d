//! [`WalCommitter`]: the app's end of WAL group commit.
//!
//! `SavApp` stages every binding mutation in its store and registers this
//! committer on the dispatch's [`Ctx`](sav_controller::Ctx). The
//! controller runs it once per batch, before any output of the batch
//! leaves, so one fsync covers every record the batch staged and no flow
//! rule outruns the record that justifies it.

use sav_controller::Commit;
use sav_metrics::Counters;
use sav_obs::{EventKind, Obs, Severity, TraceId};
use sav_store::WalCommit;
use std::sync::Mutex;

pub(crate) struct WalCommitter {
    wal: WalCommit,
    counters: Counters,
    obs: Option<Obs>,
    /// Traces whose records ride on the next commit.
    waiting: Mutex<Vec<TraceId>>,
}

impl WalCommitter {
    pub(crate) fn new(wal: WalCommit, counters: Counters, obs: Option<Obs>) -> WalCommitter {
        WalCommitter {
            wal,
            counters,
            obs,
            waiting: Mutex::new(Vec::new()),
        }
    }

    /// Settle `trace`'s `wal_fsync` stage on the next commit.
    pub(crate) fn await_commit(&self, trace: TraceId) {
        self.waiting.lock().expect("committer poisoned").push(trace);
    }
}

impl Commit for WalCommitter {
    /// One fsync for everything staged. A failure is counted and journaled
    /// like a failed append (`wal_append_errors`, `WalError`); enforcement
    /// carries on.
    fn commit(&self) {
        let waiting = std::mem::take(&mut *self.waiting.lock().expect("committer poisoned"));
        let traces = self.obs.as_ref().map(|o| &o.traces);
        let start_ns = traces.filter(|_| !waiting.is_empty()).map(|t| t.now_ns());
        if let Err(e) = self.wal.commit() {
            self.counters.incr("wal_append_errors");
            if let Some(obs) = &self.obs {
                obs.event(
                    Severity::Error,
                    EventKind::WalError {
                        op: format!("commit: {e}"),
                    },
                );
            }
        }
        if let (Some(traces), Some(start_ns)) = (traces, start_ns) {
            let end_ns = traces.now_ns();
            for trace in waiting {
                traces.settle_commit(trace, start_ns, end_ns);
            }
        }
    }
}
