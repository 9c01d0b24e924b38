//! Quickstart: the serialization-sets model in 80 lines.
//!
//! A tiny "bank" processes a stream of transfers. Accounts are
//! privately-writable domains; the ledger is a reducible audit log. All
//! operations on one account stay in program order (so balances are exact
//! and the run is deterministic), while different accounts settle on
//! different delegate threads concurrently.
//!
//! Run with: `cargo run --release --example quickstart`

use prometheus_rs::prelude::*;

struct Account {
    id: usize,
    balance: i64,
    history: Vec<i64>,
}

struct Audit(u64);
impl Reduce for Audit {
    fn reduce(&mut self, other: Self) {
        self.0 += other.0;
    }
}

fn main() {
    // One program context + delegate threads (defaults to cores - 1).
    let rt = Runtime::new().expect("runtime");
    println!(
        "runtime: {} delegate thread(s), static assignment",
        rt.delegate_threads()
    );

    // Eight accounts, each its own serialization set (sequence serializer).
    let accounts: Vec<Writable<Account, SequenceSerializer>> = (0..8)
        .map(|id| {
            Writable::new(
                &rt,
                Account {
                    id,
                    balance: 1_000,
                    history: Vec::new(),
                },
            )
        })
        .collect();
    let audit = Reducible::new(&rt, || Audit(0));

    // A deterministic little transfer stream.
    let transfers: Vec<(usize, i64)> = (0..10_000)
        .map(|i| (i % 8, if i % 3 == 0 { 25 } else { -10 }))
        .collect();

    // Isolation epoch: delegate the transfers; the runtime runs same-account
    // operations in order and different accounts in parallel.
    rt.begin_isolation().expect("begin_isolation");
    for (acct, amount) in transfers {
        let audit = audit.clone();
        accounts[acct]
            .delegate(move |a| {
                a.balance += amount;
                a.history.push(a.balance);
                audit.view(|log| log.0 += 1).expect("audit");
            })
            .expect("delegate");
    }
    rt.end_isolation().expect("end_isolation");

    // Aggregation epoch: read results; the audit log reduces on first touch.
    let mut total = 0;
    for a in &accounts {
        let (id, balance, ops) = a
            .call(|a| (a.id, a.balance, a.history.len()))
            .expect("call");
        println!("account {id}: balance {balance:>6} after {ops} operations");
        total += balance;
    }
    let audited = audit.view(|l| l.0).expect("audit read");
    println!("total balance: {total}, audited operations: {audited}");
    assert_eq!(audited, 10_000);

    let stats = rt.stats();
    println!(
        "stats: {} delegations ({} run by the program thread), {} epoch(s), \
         {:.1}% of time in isolation",
        stats.delegations,
        stats.inline_executions,
        stats.isolation_epochs,
        100.0 * stats.isolation_fraction()
    );
}
