//! Where a job ends, seen from its own handle.
//!
//! A `Waker` registered on a [`JobHandle`] fires synchronously inside the
//! job's settlement, at the moment the handle resolves — the first code that
//! can know the job is over.  Everything else the exit changes must already
//! be in place: the session's stream holds the outcome, the status is final,
//! the session has released the quota slot and metered the exit, and a
//! `try_submit` made from the wake-up gets the slot.  One table drives every
//! exit reachable from outside the crate.  No sleeps: a job that runs is held
//! back by parking the one worker inside the previous job's wake-up.

use aohpc_kernel::StencilProgram;
use aohpc_runtime::{Topology, WeaveMode};
use aohpc_service::{
    CompletionStream, JobErrorKind, JobHandle, JobOutcome, JobSpec, JobStatus, KernelService,
    ServiceConfig, SessionId, SessionSpec, SubmitError,
};
use aohpc_workloads::RegionSize;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, Weak};
use std::task::{Context, Wake, Waker};
use std::time::Duration;

fn job(side: usize) -> JobSpec {
    JobSpec::new(StencilProgram::jacobi_5pt(), vec![0.5, 0.125], RegionSize::square(side))
        .with_block(8)
        .with_steps(1)
}

/// Two ranks compiled directly: rank 0 works alone and can never fetch rank
/// 1's halo pages, so the job resolves with a report that carries an error.
/// (Admission refuses every spec known to panic; this is the failing job a
/// caller can submit.)
fn stalled_job() -> JobSpec {
    job(16).with_topology(Topology::hybrid(2, 1)).with_weave_mode(WeaveMode::Direct)
}

/// What the wake-up saw.  Observed inside `wake()`, asserted on the test
/// thread: a panic inside a worker's settlement would take the worker down.
struct Seen {
    status: JobStatus,
    /// The stream's next in-order outcome.
    streamed: Option<JobOutcome>,
    /// `(in_flight, jobs_completed, jobs_cancelled)`, and a `try_submit` made
    /// there — `None` once `shutdown(self)` owns the service.
    session: Option<(Books, Result<JobHandle, SubmitError>)>,
}

type Books = (usize, u64, u64);

struct Probe {
    service: Weak<KernelService>,
    handle: JobHandle,
    stream: CompletionStream,
    seen: Mutex<Sender<Seen>>,
}

impl Wake for Probe {
    fn wake(self: Arc<Self>) {
        let session = self.handle.session();
        let seen = Seen {
            status: self.handle.status(),
            streamed: self.stream.try_next(),
            // On a worker thread the upgraded reference must not be the last
            // one (dropping the service joins the workers): it is gone again
            // before the test thread hears from us.
            session: self.service.upgrade().map(|service| {
                let ctx = service.session(session).expect("session is open");
                let meter = ctx.meter();
                let books = (ctx.in_flight(), meter.jobs_completed, meter.jobs_cancelled);
                (books, service.try_submit(session, job(8)))
            }),
        };
        self.seen.lock().unwrap().send(seen).expect("the test is listening");
    }
}

/// Parks the thread that wakes it — a worker, mid-settlement, its job's slot
/// already released — until the test lets go.
struct Gate {
    parked: Mutex<Sender<()>>,
    release: Mutex<Receiver<()>>,
}

impl Wake for Gate {
    fn wake(self: Arc<Self>) {
        self.parked.lock().unwrap().send(()).expect("the test is listening");
        self.release.lock().unwrap().recv().expect("the test lets go");
    }
}

/// Register `waker` on the handle; `false` if the job had already resolved.
fn register(handle: &mut JobHandle, waker: impl Wake + Send + Sync + 'static) -> bool {
    let waker = Waker::from(Arc::new(waker));
    let mut cx = Context::from_waker(&waker);
    std::future::Future::poll(std::pin::Pin::new(handle), &mut cx).is_pending()
}

/// Park the service's one worker inside a settled job's wake-up; a message on
/// the returned channel lets it go.
fn park_the_worker(service: &KernelService, session: SessionId) -> Sender<()> {
    loop {
        let (parked, parked_rx) = channel();
        let (release_tx, release) = channel();
        let gate = Gate { parked: Mutex::new(parked), release: Mutex::new(release) };
        let mut blocker = service.submit(session, job(8)).expect("quota slot is free");
        if register(&mut blocker, gate) {
            parked_rx.recv().expect("the worker reaches the gate");
            return release_tx;
        }
        // The worker finished the blocker before the gate was on it: again.
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Exit {
    Runs,
    Cancel,
    Shutdown,
}

/// Name, spec, how the job ends (a job that runs needs the one worker, the
/// others none), its outcome (`Ok(failed)` for a report) and final status,
/// and the `(jobs_completed, jobs_cancelled)` the wake-up must read —
/// counting the blocker of a job that runs.
type Route =
    (&'static str, fn() -> JobSpec, Exit, Result<bool, JobErrorKind>, JobStatus, (u64, u64));

const ROUTES: [Route; 4] = [
    ("completion", || job(8), Exit::Runs, Ok(false), JobStatus::Completed, (2, 0)),
    ("a job that fails", stalled_job, Exit::Runs, Ok(true), JobStatus::Completed, (2, 0)),
    ("cancel", || job(8), Exit::Cancel, Err(JobErrorKind::Cancelled), JobStatus::Cancelled, (0, 1)),
    (
        "shutdown",
        || job(8),
        Exit::Shutdown,
        Err(JobErrorKind::Abandoned),
        JobStatus::Abandoned,
        (0, 0),
    ),
];

#[test]
fn every_exit_is_settled_when_its_handle_wakes() {
    for (name, spec, exit, expected, status, meter) in ROUTES {
        let config = ServiceConfig::default().with_workers((exit == Exit::Runs).into());
        let config = config.with_quota(1).with_admission_timeout(Duration::ZERO);
        let service = Arc::new(KernelService::new(config));
        let session = service.open_session(SessionSpec::tenant("t"));
        let stream = service.completion_stream(session).unwrap();

        // A job that runs is held behind a parked worker until the probe is
        // on its handle (the parked blocker has settled: its quota slot is
        // free and its outcome is the stream's first).
        let release = (exit == Exit::Runs).then(|| {
            let release = park_the_worker(&service, session);
            stream.try_next().expect("the blocker's outcome").expect("the blocker ran");
            release
        });
        let mut handle = service.try_submit(session, spec()).expect("quota slot is free");
        let (seen_tx, seen_rx) = channel();
        let probe = Probe {
            service: Arc::downgrade(&service),
            handle: handle.clone(),
            stream,
            seen: Mutex::new(seen_tx),
        };
        assert!(register(&mut handle, probe), "{name}: nothing can have run the job yet");
        assert_eq!(
            service.try_submit(session, job(8)).unwrap_err(),
            SubmitError::WouldBlock { session, limit: 1 },
            "{name}: the job holds the session's one slot",
        );

        match exit {
            Exit::Runs => release.expect("a parked worker").send(()).expect("the worker waits"),
            Exit::Cancel => assert!(handle.cancel(), "{name}: a queued job can be cancelled"),
            Exit::Shutdown => Arc::try_unwrap(service).expect("the test owns it").shutdown(),
        }
        let seen = seen_rx.recv().expect("the handle wakes its waker");

        assert_eq!(seen.status, status, "{name}: status at the wake-up");
        match seen.session {
            // The session's side of a shutdown is the in-crate
            // `every_exit_settles_before_its_handle_wakes`.
            None => assert!(exit == Exit::Shutdown, "{name}: service unreachable"),
            Some(((in_flight, completed, cancelled), resubmitted)) => {
                assert_eq!(
                    (in_flight, (completed, cancelled)),
                    (0, meter),
                    "{name}: (in_flight, (jobs_completed, jobs_cancelled)) at the wake-up",
                );
                assert!(resubmitted.is_ok(), "{name}: freed slot refused: {resubmitted:?}");
            }
        }
        let outcome = handle.poll().expect("resolved");
        let streamed = seen.streamed.unwrap_or_else(|| panic!("{name}: stream behind the handle"));
        match (expected, &outcome, &streamed) {
            (Ok(failed), Ok(report), Ok(streamed)) => {
                assert_eq!(report.error.is_some(), failed, "{name}: {:?}", report.error);
                assert_eq!(streamed.job, report.job, "{name}");
            }
            (Err(kind), Err(error), Err(streamed)) => {
                assert_eq!((error.kind, streamed), (kind, error), "{name}");
            }
            _ => panic!("{name}: handle {outcome:?}, stream {streamed:?}"),
        }
    }
}
