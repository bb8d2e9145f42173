//! X1: how the direct/GROUPBY gap moves with database size (Query 1,
//! titles). The paper gives one size (4.6 M nodes); this sweep shows the
//! crossover behaviour — at tiny sizes plan overheads dominate and the
//! plans tie, at realistic sizes the GROUPBY plan pulls ahead.

use microbench::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use timber::PlanMode;
use timber_bench::{build_db, QUERY_TITLES};

fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale_sweep_titles");
    group.sample_size(10);
    for &articles in &[250usize, 1_000, 4_000, 8_000] {
        let db = build_db(articles, None, false);
        group.throughput(Throughput::Elements(articles as u64));
        for (name, mode) in [
            ("direct", PlanMode::Direct),
            ("groupby", PlanMode::GroupByRewrite),
        ] {
            group.bench_with_input(BenchmarkId::new(name, articles), &articles, |b, _| {
                b.iter(|| {
                    let r = db.query(QUERY_TITLES, mode).expect("query");
                    std::hint::black_box(r.len())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
