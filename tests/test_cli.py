from lichao.cli import main, parse_ops_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_replay_two_lines(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", "A 2 0\nA -2 20\nQ 5\n")
    code, out, _ = run(capsys, "replay", "--file", path, "--domain", "0", "8")
    assert code == 0
    assert out == "10\n"


def test_replay_three_lines(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", "A 2 0\nA -2 20\nA 1 4\nQ 5\n")
    code, out, _ = run(capsys, "replay", "--file", path, "--domain", "0", "8")
    assert code == 0
    assert out == "9\n"


def test_replay_empty_file(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", "")
    code, out, _ = run(capsys, "replay", "--file", path, "--domain", "0", "8")
    assert code == 0
    assert out == ""


def test_replay_query_only_prints_inf(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", "Q 5\n")
    code, out, _ = run(capsys, "replay", "--file", path, "--domain", "0", "8")
    assert code == 0
    assert out == "INF\n"


def test_replay_comments_and_blanks_ignored(tmp_path, capsys):
    path = write(tmp_path, "ops.txt",
                 "# header comment\n\nA 1 0\n   \nQ 3\n# trailing\n")
    code, out, _ = run(capsys, "replay", "--file", path, "--domain", "0", "8")
    assert code == 0
    assert out == "3\n"


def test_replay_output_identical_across_algos(tmp_path, capsys):
    text = "A 5 -3\nQ 0\nA -5 100\nQ 10\nQ 20\nS 0 0 0 0\n"
    line_only = "".join(l + "\n" for l in text.splitlines()
                        if not l.startswith("S"))
    path = write(tmp_path, "ops.txt", line_only)
    outs = {}
    for algo in ("lict", "zkw", "cht"):
        code, out, _ = run(capsys, "replay", "--file", path,
                           "--algo", algo, "--domain", "0", "31")
        assert code == 0
        outs[algo] = out
    assert outs["lict"] == outs["zkw"] == outs["cht"]


def test_replay_segments(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", "S 0 7 2 4\nQ 3\nQ 9\n")
    code, out, _ = run(capsys, "replay", "--file", path, "--domain", "0", "15")
    assert code == 0
    assert out == "7\nINF\n"


def test_replay_segments_need_the_core_tree(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", "S 0 7 2 4\nQ 3\n")
    code, _, err = run(capsys, "replay", "--file", path, "--algo", "cht",
                       "--domain", "0", "15")
    assert code == 2
    assert "segments" in err


def test_replay_malformed_line_reports_lineno(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", "A 1 0\nA nope 3\n")
    code, _, err = run(capsys, "replay", "--file", path, "--domain", "0", "8")
    assert code == 2
    assert ":2:" in err


def test_replay_wrong_arity_rejected(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", "Q 1 2\n")
    code, _, err = run(capsys, "replay", "--file", path, "--domain", "0", "8")
    assert code == 2
    assert ":1:" in err


def test_replay_int_outside_64bit_rejected(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", f"A {2**63} 0\n")
    code, _, err = run(capsys, "replay", "--file", path, "--domain", "0", "8")
    assert code == 2
    assert "64-bit" in err


def test_replay_out_of_domain_query_fails(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", "A 1 0\nQ 9\n")
    code, _, err = run(capsys, "replay", "--file", path, "--domain", "0", "8")
    assert code == 1
    assert "domain" in err


def test_replay_reversed_domain_is_usage_error(tmp_path, capsys):
    path = write(tmp_path, "ops.txt", "Q 1\n")
    code, _, err = run(capsys, "replay", "--file", path, "--domain", "8", "0")
    assert code == 2


def test_parse_ops_file_roundtrip(tmp_path):
    path = write(tmp_path, "ops.txt", "A 1 2\nS 3 4 5 6\nQ 7\n")
    assert parse_ops_file(path) == [("A", 1, 2), ("S", 3, 4, 5, 6), ("Q", 7)]


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--ops", "2000", "--c", "1024",
                       "--seed", "1")
    assert code == 0
    assert out.startswith("OK:")


def test_verify_segments_ok(capsys):
    code, out, _ = run(capsys, "verify", "--ops", "1500", "--c", "512",
                       "--segments", "--seed", "2")
    assert code == 0


def test_verify_includes_zkw_when_universe_equals_ops(capsys):
    code, out, _ = run(capsys, "verify", "--ops", "1024", "--c", "1024",
                       "--seed", "3")
    assert code == 0
    assert "lict+zkw" in out


def test_verify_checks_cht_on_full_lines_only(capsys):
    code, out, _ = run(capsys, "verify", "--ops", "1024", "--c", "1024",
                       "--seed", "3")
    assert code == 0
    assert "engines lict+zkw+cht)" in out
    code, out, _ = run(capsys, "verify", "--ops", "600", "--c", "256",
                       "--segments", "--seed", "5")
    assert code == 0
    assert "engines lict)" in out


def test_verify_persistent(capsys):
    code, out, _ = run(capsys, "verify", "--ops", "600", "--c", "256",
                       "--persistent", "--seed", "4")
    assert code == 0
    assert "persistent" in out


def test_verify_zero_ops_vacuously_passes(capsys):
    code, out, _ = run(capsys, "verify", "--ops", "0")
    assert code == 0


def test_verify_at_reference_scale(capsys):
    code, _, _ = run(capsys, "verify", "--ops", "10000", "--c", "4096",
                     "--seed", "1")
    assert code == 0
    code, _, _ = run(capsys, "verify", "--ops", "10000", "--c", "4096",
                     "--segments", "--seed", "2")
    assert code == 0


def test_verify_persistent_excludes_segments(capsys):
    code, _, err = run(capsys, "verify", "--segments", "--persistent")
    assert code == 2


def test_bench_writes_summary_and_csv(tmp_path, capsys):
    csv_path = str(tmp_path / "rows.csv")
    code, out, _ = run(capsys, "bench", "--n", "400", "--dist", "random",
                       "--algo", "lict", "--reps", "2", "--csv", csv_path)
    assert code == 0
    assert "algo=lict" in out and "checksum=" in out
    code, _, _ = run(capsys, "bench", "--n", "400", "--dist", "random",
                     "--algo", "cht", "--reps", "2", "--csv", csv_path)
    assert code == 0
    lines = (tmp_path / "rows.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # one header, two rows
    # the two algos folded identical answers
    assert lines[1].rsplit(",", 1)[1] == lines[2].rsplit(",", 1)[1]


def test_bench_nc_zkw(capsys):
    code, out, _ = run(capsys, "bench", "--n", "512", "--nc", "--dist",
                       "hull", "--algo", "zkw", "--reps", "1")
    assert code == 0
    assert "algo=zkw" in out


def test_bench_zkw_without_nc_is_usage_error(capsys):
    code, _, err = run(capsys, "bench", "--n", "512", "--algo", "zkw")
    assert code == 2
    assert "--nc" in err


def test_bench_bad_flags(capsys):
    code, _, _ = run(capsys, "bench", "--n", "100", "--algo", "nope")
    assert code == 2
    code, _, _ = run(capsys, "bench", "--n", "1", "--algo", "lict")
    assert code == 2


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2
