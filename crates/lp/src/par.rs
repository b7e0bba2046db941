//! The one work loop behind every parallel region — a branch-and-bound
//! round ([`crate::milp`]), the exact saturation search's root split, the
//! corpus runner, the experiments: an order-preserving map over scoped
//! threads.

use std::sync::Mutex;

/// Maps `f` over `items` on `min(workers.len(), items.len())` workers and
/// returns the outputs in item order.
///
/// Each element of `workers` is one worker's private state (a scratch
/// model, a warm engine, or just `()`), which `f` receives as `&mut`. The
/// calling thread is the first worker, so a single worker spawns no
/// thread; the others run on scoped threads. Workers claim items one at a
/// time, so a slow item never holds back the rest of the queue.
///
/// Which worker runs which item varies between runs, so the outputs are
/// deterministic only when `f` does not let worker identity — including
/// anything a worker's state carries from one item to the next — reach
/// its output.
///
/// # Panics
///
/// A panic in `f` reaches the caller with its original payload once every
/// worker has stopped. Panics when `workers` is empty and `items` is not.
///
/// ```
/// let squares = rs_lp::par_map(&mut [(); 4], (0..10u64).collect(), |_, x| x * x);
/// assert_eq!(squares, (0..10u64).map(|x| x * x).collect::<Vec<_>>());
/// ```
pub fn par_map<W, T, O, F>(workers: &mut [W], items: Vec<T>, f: F) -> Vec<O>
where
    W: Send,
    T: Send,
    O: Send,
    F: Fn(&mut W, T) -> O + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let (first, rest) = workers
        .split_first_mut()
        .expect("par_map needs at least one worker");
    let queue = Mutex::new(items.into_iter().enumerate());
    let run = |worker: &mut W| {
        let mut done = Vec::new();
        loop {
            let next = queue.lock().expect("f never runs under the lock").next();
            let Some((i, item)) = next else { break done };
            done.push((i, f(worker, item)));
        }
    };
    let run = &run;
    let mut done = std::thread::scope(|s| {
        let spawned: Vec<_> = rest
            .iter_mut()
            .take(n - 1)
            .map(|worker| s.spawn(move || run(worker)))
            .collect();
        let mut done = run(first);
        for handle in spawned {
            match handle.join() {
                Ok(part) => done.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_item_runs_once_and_outputs_keep_item_order() {
        let caller = std::thread::current().id();
        // One worker, several, and more workers than items.
        for (workers, n) in [(1, 50), (2, 50), (8, 50), (8, 3)] {
            let mut ran = vec![Vec::new(); workers];
            let out = par_map(&mut ran, (0..n).collect(), |ids, x: u64| {
                ids.push(std::thread::current().id());
                x * x
            });
            assert_eq!(out, (0..n).map(|x| x * x).collect::<Vec<_>>());
            // Per-worker counts sum to the item count, no worker beyond
            // the n-th runs, and the calling thread is the first worker
            // (so a single worker spawns no thread).
            assert_eq!(ran.iter().map(Vec::len).sum::<usize>(), n as usize);
            assert!(ran[workers.min(n as usize)..].iter().all(Vec::is_empty));
            assert!(ran[0].iter().all(|&id| id == caller));
            assert!(ran[1..].iter().flatten().all(|&id| id != caller));
        }
    }

    #[test]
    fn empty_input_maps_to_nothing() {
        assert!(par_map(&mut [(); 4], Vec::<u32>::new(), |_, x| x).is_empty());
        assert!(par_map(&mut [(); 0], Vec::<u32>::new(), |_, x| x).is_empty());
    }

    #[test]
    fn a_panic_in_f_reaches_the_caller() {
        for workers in [1, 4] {
            let payload = std::panic::catch_unwind(|| {
                par_map(&mut vec![(); workers], (0..64).collect(), |_, x: u32| {
                    assert!(x != 37, "item {x} failed");
                    x
                })
            })
            .expect_err("the panic must reach the caller");
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some("item 37 failed"), "{workers} workers");
        }
    }
}
