// Registry fixture: two `order!` sites, one documented in the paired
// design excerpt (`design.md`), one phantom. Driven directly by the
// `registry` tests in tests/lint.rs, not by the fixture runner (only
// top-level fixture files carry `lint-as` headers).

pub fn publish(flag: &AtomicBool, count: &AtomicUsize, n: usize) {
    // ordering: SeqCst — documented site, must not be reported.
    count.store(n, order!(SeqCst, "steal-pending"));
    // ordering: SeqCst — phantom site, must be reported as drift.
    flag.store(true, order!(SeqCst, "phantom-site"));
}
