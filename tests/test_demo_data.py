"""demos/data/make_inputs.py regenerates the committed demo inputs, which the
CLI goldens and the benchmark workloads read, byte for byte."""

import importlib.util
import pathlib

DATA = pathlib.Path(__file__).parent.parent / "demos" / "data"


def test_make_inputs_writes_the_committed_files(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("make_inputs",
                                                  DATA / "make_inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.HERE = tmp_path
    module.main()
    capsys.readouterr()

    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in DATA.glob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
