use kg_ledger::heap::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One test only: the counters are process-wide.
#[test]
fn peak_is_the_most_live_bytes_inside_the_window() {
    const MB: usize = 1 << 20;
    let before = vec![1u8; MB];
    heap::start();
    let a = std::hint::black_box(vec![1u8; MB]);
    drop(a);
    // Freed inside the window though allocated before it: may not wrap.
    drop(before);
    let b = std::hint::black_box(vec![1u8; MB / 2]);
    let mut grown: Vec<u8> = Vec::with_capacity(16);
    grown.resize(MB / 4, 0);
    let peak = heap::stop();
    // The test harness's own threads allocate a little beside us.
    assert!((MB..MB + MB / 16).contains(&peak), "peak {peak}");

    heap::start();
    assert!(heap::stop() < MB / 16, "the counters start from zero");
    let c = std::hint::black_box(vec![1u8; MB]);
    heap::start();
    assert!(heap::stop() < MB / 16, "nothing counts outside the window");
    drop((b, c, grown));
}
