"""Unit tests for the command-line interface."""


import pytest

from repro.cli import main

from tests.conftest import CUSTOMER_DTD, CUSTOMER_XML


@pytest.fixture
def files(tmp_path):
    xml = tmp_path / "custdb.xml"
    xml.write_text(CUSTOMER_XML)
    dtd = tmp_path / "custdb.dtd"
    dtd.write_text(CUSTOMER_DTD)
    return str(xml), str(dtd)


class TestQueryCommand:
    def test_query_prints_results(self, files, capsys):
        xml, _dtd = files
        code = main([
            "query", "--xml", xml,
            'FOR $c IN document("custdb.xml")/CustDB/Customer[Name="John"] RETURN $c',
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "<Name>John</Name>" in out

    def test_update_statement_rejected_by_query(self, files, capsys):
        xml, _dtd = files
        code = main([
            "query", "--xml", xml,
            'FOR $c IN document("custdb.xml")/CustDB/Customer UPDATE $c { DELETE $c }',
        ])
        assert code == 2

    def test_custom_document_name(self, files, capsys):
        xml, _dtd = files
        code = main([
            "query", "--xml", xml, "--name", "db.xml",
            'FOR $c IN document("db.xml")/CustDB/Customer RETURN $c/Name',
        ])
        assert code == 0
        assert "John" in capsys.readouterr().out


class TestUpdateCommand:
    DELETE = (
        'FOR $d IN document("custdb.xml")/CustDB, '
        '$c IN $d/Customer[Name="John"] UPDATE $d { DELETE $c }'
    )

    def test_memory_backend(self, files, capsys):
        xml, _dtd = files
        code = main(["update", "--xml", xml, self.DELETE])
        assert code == 0
        out = capsys.readouterr().out
        assert "John" not in out
        assert "Mary" in out

    def test_sqlite_backend(self, files, capsys):
        xml, dtd = files
        code = main([
            "update", "--xml", xml, "--dtd", dtd, "--backend", "sqlite",
            "--delete-method", "cascade", self.DELETE,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "John" not in out
        assert "Mary" in out

    def test_sqlite_backend_requires_dtd(self, files, capsys):
        xml, _dtd = files
        code = main(["update", "--xml", xml, "--backend", "sqlite", self.DELETE])
        assert code == 2

    def test_output_file(self, files, tmp_path, capsys):
        xml, _dtd = files
        out_path = tmp_path / "updated.xml"
        code = main(["update", "--xml", xml, "--output", str(out_path), self.DELETE])
        assert code == 0
        assert "Mary" in out_path.read_text()

    def test_typecheck_blocks_invalid_update(self, files, capsys):
        xml, dtd = files
        code = main([
            "update", "--xml", xml, "--dtd", dtd, "--typecheck",
            'FOR $c IN document("custdb.xml")/CustDB/Customer[Name="John"], '
            "$n IN $c/Name UPDATE $c { DELETE $n }",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "typecheck failed" in err

    def test_typecheck_allows_valid_update(self, files, capsys):
        xml, dtd = files
        code = main(["update", "--xml", xml, "--dtd", dtd, "--typecheck", self.DELETE])
        assert code == 0


class TestValidateCommand:
    def test_valid_document(self, files, capsys):
        xml, dtd = files
        assert main(["validate", "--xml", xml, "--dtd", dtd]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_document(self, tmp_path, capsys):
        xml = tmp_path / "bad.xml"
        xml.write_text("<CustDB><Oops/></CustDB>")
        dtd = tmp_path / "c.dtd"
        dtd.write_text(CUSTOMER_DTD)
        assert main(["validate", "--xml", str(xml), "--dtd", str(dtd)]) == 1
        assert "INVALID" in capsys.readouterr().out


class TestErrors:
    def test_bad_statement_reports_error(self, files, capsys):
        xml, _dtd = files
        code = main(["query", "--xml", xml, "FOR $"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestConnectCommand:
    """`repro connect` drives a live network server end to end."""

    @pytest.fixture
    def listening(self):
        from repro.service import AsyncNetServer, ServiceConfig, UpdateService
        from repro.xmlmodel.parser import XmlParser

        service = UpdateService(ServiceConfig(batch_size=4, coalesce_wait=0.002))
        service.host_document("custdb.xml", XmlParser(CUSTOMER_XML).parse())
        service.start()
        server = AsyncNetServer(service, own_service=True).start()
        host, port = server.address
        yield f"{host}:{port}", service
        server.close()

    def test_exec_update_then_query(self, listening, capsys):
        addr, service = listening
        code = main([
            "connect", "--addr", addr,
            "--exec",
            'FOR $d IN document("custdb.xml")/CustDB, '
            '$c IN $d/Customer[Name="John"] UPDATE $d { DELETE $c }',
        ])
        assert code == 0
        assert "durable seq" in capsys.readouterr().err
        assert "John" not in service.query("custdb.xml")

        code = main([
            "connect", "--addr", addr,
            "--exec",
            'FOR $c IN document("custdb.xml")/CustDB/Customer RETURN $c/Name',
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "Mary" in captured.out
        assert "result(s)" in captured.err

    def test_stats_prints_service_and_net_json(self, listening, capsys):
        import json

        addr, _service = listening
        assert main(["connect", "--addr", addr, "--stats"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["service"]["documents"] == ["custdb.xml"]
        assert payload["net"]["connections"] >= 1

    def test_bad_statement_is_typed_error_exit_1(self, listening, capsys):
        addr, _service = listening
        code = main(["connect", "--addr", addr, "--exec", "FOR $"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_connection_refused_is_reported_not_raised(self, capsys):
        import socket

        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()[:2]
        probe.close()
        code = main(["connect", "--addr", f"{host}:{port}", "--stats"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestCheckpointCommand:
    """`repro checkpoint` recovers a WAL and takes one checkpoint."""

    @pytest.fixture
    def logged(self, files, tmp_path):
        from repro.service import DeltaUpdate, ServiceConfig, UpdateService
        from repro.updates.delta import InsertNode
        from repro.xmlmodel.parser import XmlParser

        xml, _dtd = files
        wal = str(tmp_path / "custdb.wal")
        service = UpdateService(ServiceConfig(wal_path=wal, batch_size=2))
        service.host_document("custdb.xml", XmlParser(CUSTOMER_XML).parse())
        service.start()
        try:
            service.submit_wait(
                DeltaUpdate(
                    "custdb.xml",
                    (InsertNode((), 1 << 30, xml='<Customer><Name>Zed</Name>'
                                                 "</Customer>"),),
                ),
                timeout=30,
            )
        finally:
            service.close()
        return xml, wal

    def test_incremental_then_full(self, logged, capsys):
        xml, wal = logged
        assert main(["checkpoint", "--xml", xml, "--wal", wal]) == 0
        err = capsys.readouterr().err
        assert "1 snapshotted, 0 carried forward" in err
        # Nothing changed since: an incremental pass carries the
        # document, a --full pass re-captures it.
        assert main(["checkpoint", "--xml", xml, "--wal", wal]) == 0
        assert "0 snapshotted, 1 carried forward" in capsys.readouterr().err
        assert main(["checkpoint", "--xml", xml, "--wal", wal, "--full"]) == 0
        assert "1 snapshotted, 0 carried forward" in capsys.readouterr().err
