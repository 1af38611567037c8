//! Waker-notified completion cells: the one reply primitive every shard
//! command answers through.
//!
//! Every gateway command that expects an answer carries a [`Completer`]:
//! the shard worker delivers the result into the shared cell and wakes
//! whoever holds the matching [`Completion`]. An async caller awaits it as
//! a future, so one front-end thread can have thousands of commands in
//! flight — one per session task; a blocking caller parks its own thread in
//! [`block_on`] over the same future, or over a verb's whole `async` body.
//!
//! The pair is deliberately tiny: a mutex-guarded `Option<T>` plus an
//! `Option<Waker>`. A dropped-without-delivering [`Completer`] (the worker
//! died, or the command was abandoned in a shard queue at shutdown) closes
//! the cell, so the completion resolves to
//! [`GatewayError::RuntimeUnavailable`](crate::GatewayError::RuntimeUnavailable)
//! instead of pending forever.
//!
//! Lock acquisitions recover from poisoning (the cell holds a plain
//! value/waker pair with no invariant a mid-panic unwind can break): a task
//! that panics while a shard worker is mid-`complete` must fail alone, not
//! spread a poison panic through every other session's completion cell.

use crate::error::{GatewayError, Result};
use crate::frontend::lock_unpoisoned;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

/// Shared state of one completion cell.
struct State<T> {
    /// The delivered value, if any (taken by the awaiting future).
    value: Option<T>,
    /// The waker of the task currently parked on the future, if any.
    waker: Option<Waker>,
    /// True once the [`Completer`] was dropped without delivering.
    closed: bool,
}

/// Creates a linked completer/future pair for one command's reply.
pub(crate) fn completion_pair<T>() -> (Completer<T>, Completion<T>) {
    let state = Arc::new(Mutex::new(State {
        value: None,
        waker: None,
        closed: false,
    }));
    (
        Completer {
            state: Arc::clone(&state),
            delivered: false,
        },
        Completion { state },
    )
}

/// The delivering half, carried inside a shard command. Exactly one of
/// [`Completer::complete`] or the drop-without-delivering close will run.
pub(crate) struct Completer<T> {
    state: Arc<Mutex<State<T>>>,
    delivered: bool,
}

impl<T> Completer<T> {
    /// Delivers the reply and wakes the awaiting task, if one is parked.
    pub(crate) fn complete(mut self, value: T) {
        let waker = {
            let mut state = lock_unpoisoned(&self.state);
            state.value = Some(value);
            state.waker.take()
        };
        self.delivered = true;
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

impl<T> Drop for Completer<T> {
    fn drop(&mut self) {
        if self.delivered {
            return;
        }
        // The command died before producing a reply (worker gone, queue
        // abandoned). Close the cell and wake the waiter so it observes
        // `RuntimeUnavailable` instead of parking forever.
        let waker = {
            let mut state = lock_unpoisoned(&self.state);
            state.closed = true;
            state.waker.take()
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

/// The awaiting half: a future resolving to the delivered reply, or to
/// [`GatewayError::RuntimeUnavailable`] when the command was abandoned.
pub(crate) struct Completion<T> {
    state: Arc<Mutex<State<T>>>,
}

/// Wakes a thread parked in [`block_on`].
struct Unpark(Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Runs `future` to completion on the calling thread: polls with a waker
/// that unparks this thread and parks between polls, so a spurious unpark
/// just polls again. The blocking gateway verbs are this over the same
/// `async` bodies the async front-end awaits.
pub(crate) fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = std::pin::pin!(future);
    let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(output) => return output,
            Poll::Pending => std::thread::park(),
        }
    }
}

impl<T> Future for Completion<T> {
    type Output = Result<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut state = lock_unpoisoned(&self.state);
        if let Some(value) = state.value.take() {
            return Poll::Ready(Ok(value));
        }
        if state.closed {
            return Poll::Ready(Err(GatewayError::RuntimeUnavailable));
        }
        // Re-register every poll: the executor may poll through a fresh
        // waker after moving the task, and only the latest one may be woken.
        state.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Flag(std::sync::atomic::AtomicBool);

    impl Wake for Flag {
        fn wake(self: Arc<Self>) {
            self.0.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }

    fn flag_waker() -> (Arc<Flag>, Waker) {
        let flag = Arc::new(Flag(std::sync::atomic::AtomicBool::new(false)));
        (Arc::clone(&flag), Waker::from(Arc::clone(&flag)))
    }

    fn poll_once<T>(completion: &mut Completion<T>, waker: &Waker) -> Poll<Result<T>> {
        Pin::new(completion).poll(&mut Context::from_waker(waker))
    }

    #[test]
    fn delivery_wakes_and_resolves() {
        let (completer, mut completion) = completion_pair::<u32>();
        let (flag, waker) = flag_waker();
        assert!(poll_once(&mut completion, &waker).is_pending());
        completer.complete(7);
        assert!(flag.0.load(std::sync::atomic::Ordering::SeqCst));
        assert_eq!(poll_once(&mut completion, &waker), Poll::Ready(Ok(7)));
    }

    #[test]
    fn delivery_before_first_poll_is_immediate() {
        let (completer, mut completion) = completion_pair::<u32>();
        completer.complete(9);
        let (_, waker) = flag_waker();
        assert_eq!(poll_once(&mut completion, &waker), Poll::Ready(Ok(9)));
    }

    #[test]
    fn dropped_completer_closes_with_runtime_unavailable() {
        let (completer, mut completion) = completion_pair::<u32>();
        let (flag, waker) = flag_waker();
        assert!(poll_once(&mut completion, &waker).is_pending());
        drop(completer);
        assert!(flag.0.load(std::sync::atomic::Ordering::SeqCst));
        assert_eq!(
            poll_once(&mut completion, &waker),
            Poll::Ready(Err(GatewayError::RuntimeUnavailable))
        );
    }

    #[test]
    fn wait_returns_a_value_delivered_before_it() {
        let (completer, completion) = completion_pair::<u32>();
        completer.complete(11);
        assert_eq!(block_on(completion), Ok(11));
    }

    #[test]
    fn wait_parks_until_another_thread_delivers() {
        let (completer, completion) = completion_pair::<u32>();
        let state = Arc::clone(&completion.state);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(move || block_on(completion));
            // The waiter registers its waker under the cell lock right
            // before it parks; deliver only once that has happened.
            while lock_unpoisoned(&state).waker.is_none() {
                std::thread::yield_now();
            }
            completer.complete(13);
            assert_eq!(waiter.join().unwrap(), Ok(13));
        });
    }

    #[test]
    fn wait_on_a_dropped_completer_is_runtime_unavailable() {
        let (completer, completion) = completion_pair::<u32>();
        drop(completer);
        assert_eq!(block_on(completion), Err(GatewayError::RuntimeUnavailable));
    }

    #[test]
    fn spurious_unpark_does_not_end_the_wait() {
        let (completer, completion) = completion_pair::<u32>();
        let state = Arc::clone(&completion.state);
        let returned = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let outcome = block_on(completion);
                returned.store(true, std::sync::atomic::Ordering::SeqCst);
                outcome
            });
            // Every unpark below is spurious: each one makes the waiter
            // poll again, and each poll takes the registered waker's place
            // with a fresh clone — so seeing the slot refilled proves the
            // waiter went round the loop and is still waiting.
            for _ in 0..8 {
                loop {
                    if lock_unpoisoned(&state).waker.take().is_some() {
                        break;
                    }
                    std::thread::yield_now();
                }
                waiter.thread().unpark();
            }
            while lock_unpoisoned(&state).waker.is_none() {
                std::thread::yield_now();
            }
            assert!(!returned.load(std::sync::atomic::Ordering::SeqCst));
            completer.complete(17);
            assert_eq!(waiter.join().unwrap(), Ok(17));
        });
    }

    /// The shape of every blocking verb: one `block_on` over a body that
    /// awaits one reply, then another, each parking the thread between
    /// polls until a second thread delivers it.
    #[test]
    fn block_on_an_async_body_that_awaits_two_completions_in_sequence() {
        let (first_completer, first) = completion_pair::<u32>();
        let (second_completer, second) = completion_pair::<u32>();
        let first_state = Arc::clone(&first.state);
        let second_state = Arc::clone(&second.state);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(move || {
                block_on(async move {
                    let a = first.await?;
                    let b = second.await?;
                    Ok::<_, GatewayError>(a * 10 + b)
                })
            });
            while lock_unpoisoned(&first_state).waker.is_none() {
                std::thread::yield_now();
            }
            // The body has not reached its second await yet.
            assert!(lock_unpoisoned(&second_state).waker.is_none());
            first_completer.complete(4);
            while lock_unpoisoned(&second_state).waker.is_none() {
                std::thread::yield_now();
            }
            second_completer.complete(2);
            assert_eq!(waiter.join().unwrap(), Ok(42));
        });
    }
}
