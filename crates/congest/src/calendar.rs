//! The wake calendar: which nodes a round must step.
//!
//! A node needs stepping in round `r` only if its inbox is non-empty or
//! its [`Protocol::next_wake`] names `r`. The calendar files each node
//! under its next wake round and keeps a running count of halted nodes,
//! so a round costs time in proportion to the nodes it steps plus an
//! `n / 64`-word mask scan, not a visit to every node, and "has every
//! node halted?" is a counter comparison. Every round engine (serial,
//! pooled workers, socket shards) drives one calendar over the nodes it
//! owns, indexed by their local position.

use crate::network::Protocol;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `wake` value of a node with no self-timed round pending.
const NEVER: u64 = u64::MAX;

/// Per-owner schedule of self-timed wakes plus the halted-node count.
///
/// A node's *live* entry is the one matching its `wake` slot; there is at
/// most one. An entry is filed only when a node's wake round changes, and
/// an entry that no longer matches is dropped when its round comes up.
#[derive(Debug, Default)]
pub(crate) struct WakeCalendar {
    /// Step every node every round (`Config::skip_idle = false`): the
    /// reference path the skipping engines must match.
    every_round: bool,
    /// Each node's pending wake round, [`NEVER`] if none.
    wake: Vec<u64>,
    /// The next round to run.
    next: u64,
    /// Nodes waking in round `next`.
    soon: Vec<u32>,
    /// Wakes after `next`, as `(round, node)`.
    later: BinaryHeap<Reverse<(u64, u32)>>,
    halted: Vec<bool>,
    halted_count: usize,
    /// Scratch bitset over nodes, all zero between rounds: `due` marks the
    /// round's active nodes in it and reads them back in ascending order.
    mark: Vec<u64>,
}

impl WakeCalendar {
    /// Builds the calendar for `nodes` about to run `round`.
    pub(crate) fn new<P: Protocol>(nodes: &[P], round: u64, skip_idle: bool) -> Self {
        let mut cal = WakeCalendar {
            every_round: !skip_idle,
            wake: vec![NEVER; nodes.len()],
            next: round,
            halted: vec![false; nodes.len()],
            mark: vec![0; nodes.len().div_ceil(64)],
            ..WakeCalendar::default()
        };
        for (i, node) in nodes.iter().enumerate() {
            cal.settle(i, node, round);
        }
        cal
    }

    /// Whether every node reports halted.
    pub(crate) fn all_halted(&self) -> bool {
        self.halted_count == self.halted.len()
    }

    /// Fills `active` with the nodes to step in `round`, ascending and
    /// without duplicates: those whose wake is due plus `messaged` (the
    /// nodes with a non-empty inbox). Rounds must be asked for in order.
    pub(crate) fn due(&mut self, round: u64, messaged: &[u32], active: &mut Vec<u32>) {
        active.clear();
        if self.every_round {
            active.extend(0..self.wake.len() as u32);
            return;
        }
        debug_assert_eq!(round, self.next, "rounds run in order");
        self.next = round + 1;
        let mark = &mut self.mark;
        let mut set = |v: u32| mark[v as usize / 64] |= 1 << (v % 64);
        for v in self.soon.drain(..) {
            if self.wake[v as usize] == round {
                self.wake[v as usize] = NEVER;
                set(v);
            }
        }
        while let Some(&Reverse((at, v))) = self.later.peek() {
            if at > round {
                break;
            }
            self.later.pop();
            if self.wake[v as usize] == at {
                self.wake[v as usize] = NEVER;
                set(v);
            }
        }
        for &v in messaged {
            set(v);
        }
        for (w, word) in self.mark.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                active.push(w as u32 * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// Records node `i`'s state after the current round (stepped, or
    /// skipped because it was crashed): its halted flag and its next wake
    /// at or after `next`.
    pub(crate) fn settle<P: Protocol>(&mut self, i: usize, node: &P, next: u64) {
        let halted = node.is_halted();
        if halted != self.halted[i] {
            self.halted[i] = halted;
            if halted {
                self.halted_count += 1;
            } else {
                self.halted_count -= 1;
            }
        }
        if self.every_round {
            return;
        }
        let wake = node.next_wake(next).unwrap_or(NEVER);
        debug_assert!(wake >= next, "next_wake({next}) went back to {wake}");
        if wake != self.wake[i] {
            self.wake[i] = wake;
            if wake == self.next {
                self.soon.push(i as u32);
            } else if wake != NEVER {
                self.later.push(Reverse((wake, i as u32)));
            }
        }
    }
}
