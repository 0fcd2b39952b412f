//! Deterministic backpressure, timeout and completion-stream tests: no
//! sleeps, no timing guesses.  Deadlines run on the harness's
//! [`FakeClock`](aohpc_testalloc::sync::FakeClock) (they pass only when the
//! test advances it), thread orderings are pinned with
//! [`StepLine`](aohpc_testalloc::sync::StepLine), and parked-submitter
//! observation uses [`spin_until`](aohpc_testalloc::sync::spin_until) on the
//! service's admission counters.
//!
//! Run single-threaded in CI (`cargo test -p aohpc-service --
//! --test-threads=1`) so the interleavings under test are the only
//! concurrency in the process.

use aohpc_service::{JobSpec, KernelService, ServiceConfig, SessionSpec, SubmitError};
use aohpc_testalloc::sync::{spin_until, FakeClock, StepLine};
use aohpc_workloads::Scale;
use std::time::Duration;

fn job() -> JobSpec {
    JobSpec::jacobi(Scale::Smoke)
}

/// Admission-only service (0 workers — in-flight counts never drop on their
/// own) with a quota of one, on a fake clock.
fn clocked_service() -> (KernelService, std::sync::Arc<FakeClock>) {
    let clock = FakeClock::new();
    let config = ServiceConfig::default()
        .with_workers(0)
        .with_quota(1)
        .with_admission_timeout(Duration::ZERO);
    let service = KernelService::with_fake_clock(config, clock.clone());
    (service, clock)
}

/// A `submit_timeout` deadline passes when — and only when — the fake clock
/// is advanced past it.  No real time is slept anywhere.
#[test]
fn submit_timeout_expires_on_the_fake_clock() {
    let (service, clock) = clocked_service();
    let session = service.open_session(SessionSpec::tenant("t"));
    let first = service.try_submit(session, job()).unwrap();

    std::thread::scope(|scope| {
        let submitter =
            scope.spawn(|| service.submit_timeout(session, job(), Duration::from_secs(10)));

        // The submitter registers as waiting only after it computed its
        // deadline and found the quota full, so advancing now cannot shift
        // the deadline under it.
        spin_until("submitter parked on backpressure", || service.admission_stats().waiting == 1);
        assert!(!first.is_complete(), "nothing resolved the blocking job");

        // Not enough: the deadline (10s) has not passed at 9s.
        clock.advance(Duration::from_secs(9));
        assert_eq!(service.admission_stats().waiting, 1, "9s < 10s: still parked");

        // Past the deadline: the submitter wakes and reports backpressure.
        clock.advance(Duration::from_secs(2));
        let err = submitter.join().unwrap().unwrap_err();
        assert_eq!(err, SubmitError::WouldBlock { session, limit: 1 });
    });

    assert_eq!(service.admission_stats().waiting, 0, "no leaked waiter registration");
    let meter = *service.session(session).unwrap().meter();
    assert_eq!(meter.jobs_throttled, 1, "the expired wait was metered as throttled");
    assert_eq!(meter.jobs_submitted, 1, "only the first job was admitted");
}

/// A parked `submit_timeout` is admitted the moment capacity frees — here by
/// cancelling the job that holds the only quota slot.
#[test]
fn submit_timeout_admits_once_capacity_frees() {
    let (service, _clock) = clocked_service();
    let session = service.open_session(SessionSpec::tenant("t"));
    let line = StepLine::new();
    let blocker = service.try_submit(session, job()).unwrap();

    std::thread::scope(|scope| {
        let submitter = scope.spawn(|| {
            line.reach("submitter-entering");
            // An hour of fake time: this must resolve by capacity, never by
            // deadline (the clock is not advanced in this test).
            service.submit_timeout(session, job(), Duration::from_secs(3600))
        });

        // Freeing capacity after this point is race-free by construction:
        // if the cancel lands before the submitter's first admission check,
        // it admits immediately; if after, the capacity bump wakes it.
        line.wait_for("submitter-entering");
        assert!(blocker.cancel(), "the queued blocker is cancellable");

        let handle = submitter.join().unwrap().expect("admitted after the cancel freed the slot");
        assert_eq!(handle.session(), session);
    });

    let ctx = service.session(session).unwrap();
    assert_eq!(ctx.in_flight(), 1, "exactly the second job holds the slot");
    assert_eq!(ctx.meter().jobs_cancelled, 1);
    assert_eq!(ctx.meter().jobs_throttled, 0, "an admitted wait is not a throttle");
}

/// Closing a session wakes its parked submitters with the fatal error
/// instead of letting them wait out their deadline.
#[test]
fn close_session_wakes_parked_submitters() {
    let (service, _clock) = clocked_service();
    let session = service.open_session(SessionSpec::tenant("t"));
    let _blocker = service.try_submit(session, job()).unwrap();

    std::thread::scope(|scope| {
        let submitter =
            scope.spawn(|| service.submit_timeout(session, job(), Duration::from_secs(3600)));
        spin_until("submitter parked on backpressure", || service.admission_stats().waiting == 1);
        service.close_session(session).unwrap();
        let err = submitter.join().unwrap().unwrap_err();
        assert_eq!(err, SubmitError::SessionClosed(session));
    });
}

/// The global queue bound backpressures the same way, and a worker dequeue
/// is what frees it: with real workers the parked submitter is admitted as
/// the backlog drains — no test sleeps, the workers' own progress is the
/// signal.
#[test]
fn queue_bound_admits_as_workers_drain() {
    let config = ServiceConfig::default()
        .with_workers(1)
        .with_quota(100)
        .with_queue_bound(2)
        .with_admission_timeout(Duration::from_secs(30));
    let service = KernelService::new(config);
    let session = service.open_session(SessionSpec::tenant("t"));

    // Saturate: with one worker executing, up to two more jobs can sit in
    // the queue.  Keep submitting through the blocking path; every
    // submission must eventually be admitted (workers keep freeing slots),
    // and none may error.
    let handles: Vec<_> = (0..8).map(|_| service.submit(session, job()).unwrap()).collect();
    let reports = service.drain();
    assert_eq!(reports.len(), 8);
    assert!(reports.iter().all(|r| r.error.is_none()));
    for handle in &handles {
        assert!(handle.poll().unwrap().is_ok());
    }
    assert_eq!(service.admission_stats().queued, 0);
}

/// One freed quota slot admits exactly one of two parked submitters; the
/// other stays parked until its (fake) deadline expires.  Exercises the
/// re-check loop: a woken waiter that loses the race must go back to
/// waiting, not error or double-admit.
#[test]
fn one_freed_slot_admits_exactly_one_of_two_waiters() {
    let (service, clock) = clocked_service();
    let session = service.open_session(SessionSpec::tenant("t"));
    let blocker = service.try_submit(session, job()).unwrap();

    std::thread::scope(|scope| {
        let a = scope.spawn(|| service.submit_timeout(session, job(), Duration::from_secs(10)));
        let b = scope.spawn(|| service.submit_timeout(session, job(), Duration::from_secs(10)));
        spin_until("both submitters parked", || service.admission_stats().waiting == 2);

        assert!(blocker.cancel());
        // Exactly one wins the freed slot; the loser re-parks.
        spin_until("one submitter admitted", || service.admission_stats().waiting == 1);
        assert_eq!(service.session(session).unwrap().in_flight(), 1);

        clock.advance(Duration::from_secs(11));
        let outcomes = [a.join().unwrap(), b.join().unwrap()];
        let admitted = outcomes.iter().filter(|r| r.is_ok()).count();
        assert_eq!(admitted, 1, "exactly one waiter took the slot: {outcomes:?}");
        let err = outcomes.iter().find_map(|r| r.as_ref().err()).unwrap();
        assert_eq!(*err, SubmitError::WouldBlock { session, limit: 1 });
    });

    let meter = *service.session(session).unwrap().meter();
    assert_eq!(meter.jobs_submitted, 2, "blocker + the admitted waiter");
    assert_eq!(meter.jobs_throttled, 1, "the loser was metered once, at its deadline");
    assert_eq!(service.admission_stats().waiting, 0);
}

/// Whether this process's thread named `name` is asleep: state `S` in its
/// `/proc/self/task/*/stat`, parked in a wait rather than running toward one.
fn is_asleep(name: &str) -> bool {
    std::fs::read_dir("/proc/self/task").expect("/proc/self/task lists the threads").any(|task| {
        let path = task.expect("a task entry").path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        let stat = std::fs::read_to_string(path.join("stat")).unwrap_or_default();
        comm.trim_end() == name && stat.rsplit_once(") ").is_some_and(|(_, s)| s.starts_with('S'))
    })
}

/// Two consumers of one session's stream: the one blocked on the earliest
/// job does not take it from the queue before it resolves, so a later job
/// that resolves first still waits its turn, and each outcome goes to
/// exactly one consumer, in submission order.
#[test]
fn two_consumers_share_one_stream_in_submission_order() {
    let service = KernelService::new(ServiceConfig::default().with_workers(0).with_quota(2));
    let session = service.open_session(SessionSpec::tenant("t"));
    let (first, second) =
        (service.completion_stream(session).unwrap(), service.completion_stream(session).unwrap());
    let a = service.submit(session, job()).unwrap();
    let b = service.submit(session, job()).unwrap();

    // Not a scoped thread: if an assertion below fails, dropping the service
    // abandons A, so the consumer returns instead of hanging the test.
    let consumer = std::thread::Builder::new()
        .name("stream-first".into())
        .spawn(move || {
            let outcome = first.next();
            (first, outcome)
        })
        .unwrap();
    spin_until("the first consumer blocks on A", || is_asleep("stream-first"));

    assert!(b.cancel());
    assert!(second.try_next().is_none(), "B resolved, but waits its turn behind A");
    assert_eq!(second.pending(), 2, "both jobs are still owed");

    assert!(a.cancel());
    let (first, got_a) = consumer.join().unwrap();
    assert_eq!(got_a.expect("A was owed").unwrap_err().job, a.id());
    let got_b = second.next().expect("B was owed");
    assert_eq!(got_b.unwrap_err().job, b.id());
    assert!(first.try_next().is_none() && second.next().is_none(), "each outcome went once");
}
