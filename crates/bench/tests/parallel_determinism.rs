//! The parallel sweep executor's whole contract: output is bitwise
//! identical to the serial sweep at any thread count. Rendered tables
//! are compared byte-for-byte at 1, 2, and 8 workers.

use es2_sim::SimDuration;
use es2_testbed::Params;

fn tiny_params() -> Params {
    // Window lengths only affect run duration; byte-equality across
    // thread counts must hold for any fixed params.
    Params {
        warmup: SimDuration::from_millis(20),
        measure: SimDuration::from_millis(100),
        ..Params::default()
    }
}

#[test]
fn rendered_tables_identical_at_1_2_and_8_threads() {
    let params = tiny_params();
    let rates = [1000.0, 2000.0];

    let render = |threads: usize| {
        es2_sim::exec::set_threads(Some(threads));
        let fig4 = es2_bench::render_fig4(params, es2_bench::SEED);
        let fig9 = es2_bench::render_fig9(params, es2_bench::SEED, &rates);
        es2_sim::exec::set_threads(None);
        (fig4, fig9)
    };

    let (fig4_serial, fig9_serial) = render(1);
    for threads in [2usize, 8] {
        let (fig4, fig9) = render(threads);
        assert_eq!(
            fig4, fig4_serial,
            "fig4 table diverged at {threads} threads"
        );
        assert_eq!(
            fig9, fig9_serial,
            "fig9 table diverged at {threads} threads"
        );
    }
}
